package repro.perfbench

import repro.core.{Spq, TripResult}
import repro.testutil.Fixtures
import repro.traj.Traj

/** Correctness checks run outside every timed window. Each returns None when
  * the check holds, or a one-line description of the violation.
  */
object Checks {

  /** A trip result must tile the query path [0, |P|) in order with non-empty
    * samples, and its convolved histogram must carry mass Π|X_j|.
    */
  def tripInvariants(q: Spq, r: TripResult): Option[String] = {
    if (r.sub.isEmpty) return Some("no sub-results")
    var pos = 0
    for (s <- r.sub) {
      if (s.startIdx != pos || s.endIdx <= s.startIdx)
        return Some(s"sub-results do not tile the path at $pos: [${s.startIdx}, ${s.endIdx})")
      if (s.x.isEmpty) return Some(s"empty sample for [${s.startIdx}, ${s.endIdx})")
      pos = s.endIdx
    }
    if (pos != q.length) return Some(s"sub-results end at $pos, path has ${q.length} segments")
    val expected = r.sub.iterator.map(_.x.length.toDouble).product
    val mass = r.histogram.total
    if (math.abs(mass - expected) > 1e-9 * expected)
      return Some(s"histogram mass $mass, expected Π|X_j| = $expected")
    None
  }

  /** Whether the traced mirror reproduced `run`'s result exactly. */
  def sameResult(a: TripResult, b: TripResult): Boolean =
    a.sub.length == b.sub.length &&
      a.sub.indices.forall { i =>
        val (x, y) = (a.sub(i), b.sub(i))
        x.startIdx == y.startIdx && x.endIdx == y.endIdx && x.relaxed == y.relaxed &&
          java.util.Arrays.equals(x.x, y.x)
      } &&
      a.histogram == b.histogram && a.indexCalls == b.indexCalls &&
      a.estimatorSkips == b.estimatorSkips

  /** The index's X for one sub-query against the naive scan over the
    * trajectory arrays: X must be a sub-multiset of the naive matches (values
    * within 1e-9) of size min(β, matches), or every match once relaxed.
    */
  def againstNaive(trajs: Array[Traj], a: Answered): Option[String] = {
    val q = a.q
    val naive = Fixtures.naiveTravelTimes(trajs.toIndexedSeq, q.path, q.interval, q.user).sorted.toArray
    val want = q.beta match {
      case Some(b) if !q.relaxed => math.min(b, naive.length)
      case _                     => naive.length
    }
    if (a.x.length != want)
      return Some(s"|X| = ${a.x.length}, expected $want of ${naive.length} naive matches for path ${q.path}")
    val x = a.x.sorted
    var j = 0
    for (v <- x) {
      while (j < naive.length && naive(j) < v - tol(v)) j += 1
      if (j == naive.length || math.abs(naive(j) - v) > tol(v))
        return Some(s"travel time $v has no naive match for path ${q.path}")
      j += 1
    }
    None
  }

  private def tol(v: Double): Double = 1e-9 * math.max(1.0, math.abs(v))
}
