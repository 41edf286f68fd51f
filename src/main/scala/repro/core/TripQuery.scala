package repro.core

import repro.hist.Histogram

/** Result of one accepted sub-query: its position in the original path and
  * the retrieved travel-time sample X (non-empty). Its minimum, maximum and
  * mean are computed once here: shift-and-enlarge reads them on every later
  * dispatch. Min and max follow the total order of `java.lang.Double.compare`,
  * as `x.min` / `x.max` do.
  */
final case class SubResult(startIdx: Int, endIdx: Int, x: Array[Double], relaxed: Boolean) {
  require(x.nonEmpty, s"empty travel-time sample for sub-path [$startIdx, $endIdx)")
  val min: Double = {
    var m = x(0); var i = 1
    while (i < x.length) { if (java.lang.Double.compare(x(i), m) < 0) m = x(i); i += 1 }
    m
  }
  val max: Double = {
    var m = x(0); var i = 1
    while (i < x.length) { if (java.lang.Double.compare(x(i), m) > 0) m = x(i); i += 1 }
    m
  }
  val mean: Double = { var s = 0.0; var i = 0; while (i < x.length) { s += x(i); i += 1 }; s / x.length }
  def pathLen: Int = endIdx - startIdx
}

/** Result of Procedure 6 for one trip query. */
final case class TripResult(
    sub: Vector[SubResult],
    histogram: Histogram,
    indexCalls: Int,      // getTravelTimes invocations actually dispatched
    estimatorSkips: Int,  // sub-queries relaxed on the estimate alone
) {
  /** Σ X̄_j — the point estimate compared against the trajectory's true time. */
  def meanEstimate: Double = sub.map(_.mean).sum
  def avgSubPathLength: Double = sub.map(_.pathLen).sum.toDouble / sub.size
}

/** Procedure 6 — tripQuery. Partition with π, process sub-queries in path
  * order, shift-and-enlarge the periodic interval of later sub-queries by
  * the completed predecessors' minima/ranges, relax failing sub-queries with
  * Procedure 1 (σ), and convolve the per-sub-query histograms.
  *
  * When a cardinality estimator is supplied, a sub-query whose estimate β̂
  * falls below β is relaxed without touching the temporal indexes (§4.4).
  */
final class TripQueryProcessor(
    val index: SNTIndex,
    val splitter: Splitter,
    val bucketH: Double = 10.0,
    val estimator: Option[CardinalityEstimator] = None,
) extends Serializable {

  def run(q: Spq, pi: Partitioner): TripResult = {
    val bad = q.path.indexWhere(e => e < 1 || e > index.net.numEdges)
    require(bad < 0, s"edge id ${q.path(bad)} at path position $bad is outside [1, ${index.net.numEdges}]")
    var queue: List[Spq] = pi(q, index.net).sortBy(_.startIdx).toList
    val done = collection.mutable.ArrayBuffer.empty[SubResult]
    // S and R of shift-and-enlarge: sums of the minima and ranges of every
    // accepted sub-result. Sub-queries complete in path order, so all of them
    // precede the sub-query being dispatched.
    var sumMin = 0.0
    var sumRange = 0.0
    var calls = 0
    var skips = 0
    var guard = 0
    val maxSteps = 200 * (q.length + 1) // safety net; Procedure 1 terminates long before
    while (queue.nonEmpty && guard < maxSteps) {
      guard += 1
      val qi = queue.head
      val rest = queue.tail
      // Shift-and-enlarge at dispatch (Procedure 6 lines 3–5), relative to the
      // unshifted base interval so repeated relaxations don't double-shift.
      val effective: TimeInterval = qi.interval match {
        case p: PeriodicInterval if qi.startIdx > 0 => p.shiftAndEnlarge(sumMin, sumRange)
        case iv => iv
      }
      val effQ = qi.copy(interval = effective)
      val skipByEstimate = estimator.exists { est =>
        !qi.relaxed && qi.beta.exists(b => est.estimate(effQ) < b)
      }
      if (skipByEstimate) {
        skips += 1
        queue = splitter(qi) ++: rest
      } else {
        calls += 1
        val x = index.getTravelTimes(effQ)
        if (x.nonEmpty) {
          val r = SubResult(qi.startIdx, qi.endIdx, x, qi.relaxed)
          done += r
          sumMin += r.min
          sumRange += r.max - r.min
          queue = rest
        } else {
          queue = splitter(qi) ++: rest
        }
      }
    }
    require(queue.isEmpty, s"tripQuery did not terminate within $maxSteps steps")
    val sorted = done.sortBy(_.startIdx).toVector
    val hist = Histogram.convolveAll(sorted.map(r => Histogram.create(r.x, bucketH)))
    TripResult(sorted, hist, calls, skips)
  }
}
