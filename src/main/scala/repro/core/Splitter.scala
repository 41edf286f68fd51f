package repro.core

/** Path-split strategies σ (§3.3). */
sealed trait SplitMethod extends Serializable { def name: String }
/** σ_R — cut the path in half. */
case object SigmaR extends SplitMethod { val name = "sigmaR" }
/** σ_L — longest prefix that still meets the cardinality requirement. */
case object SigmaL extends SplitMethod { val name = "sigmaL" }

/** Procedure 1 — modify a sub-query to increase its sample size.
  *
  * Order of relaxations: widen the periodic interval along the ladder A,
  * then split the path (σ_R or σ_L, shrinking the interval back to αmin),
  * then drop the non-temporal filter f, and finally drop every predicate
  * ([0, tmax), no β) — the `relaxed` terminal state that Procedure 5
  * processes unconditionally.
  *
  * @param A ascending interval sizes ⟨α₁ … αₙ⟩ in seconds, α₁ = αmin
  */
final class Splitter(val A: Vector[Long], val method: SplitMethod, index: SNTIndex)
    extends Serializable {
  require(A.nonEmpty && A == A.sorted, "A must be ascending")

  def apply(q: Spq): Vector[Spq] = q.interval match {
    case p: PeriodicInterval if p.sizeSec < A.last =>
      Vector(q.copy(interval = widen(p)))
    case iv =>
      if (q.length > 1) {
        val m0 = method match {
          case SigmaR => q.length / 2
          case SigmaL => longestPrefix(q)
        }
        val m = math.max(1, math.min(q.length - 1, m0))
        val newIv = iv match {
          case p: PeriodicInterval => p.shrink(A.head)
          case f: FixedInterval    => f
        }
        Vector(
          q.copy(path = q.path.take(m), interval = newIv),
          q.copy(path = q.path.drop(m), interval = newIv, startIdx = q.startIdx + m),
        )
      } else if (q.user.nonEmpty) {
        Vector(q.copy(user = None))
      } else {
        Vector(q.copy(interval = FixedInterval(0L, index.tmaxGlobal),
                      user = None, beta = None, relaxed = true))
      }
  }

  /** The widen ladder that `apply` walks from `p`: p itself, then each
    * widening while the window is below αmax = A.last. Rungs are nested
    * windows, since `widen` grows both ends.
    */
  def ladder(p: PeriodicInterval): Vector[PeriodicInterval] = {
    val rungs = Vector.newBuilder[PeriodicInterval]
    var r = p
    rungs += r
    while (r.sizeSec < A.last) {
      r = widen(r)
      rungs += r
    }
    rungs.result()
  }

  /** The windows Procedure 1 tries before it splits the path: a periodic
    * window's widen ladder; a fixed window is never widened, so it is its
    * own one rung.
    */
  def ladder(iv: TimeInterval): Vector[TimeInterval] = iv match {
    case p: PeriodicInterval => ladder(p)
    case f => Vector(f)
  }

  /** One widening step: the next size of A above the window's. */
  private def widen(p: PeriodicInterval): PeriodicInterval = p.widen(A.find(_ > p.sizeSec).get)

  /** σ_L's m: the largest prefix length with ≥ β matching trajectories under
    * the current predicates; falls back to 1 when even the single-segment
    * prefix misses β (a split must make progress).
    *
    * Like the paper's greedy, each candidate prefix is evaluated against the
    * index (one spatial lookup + a temporal scan per candidate) — this
    * repeated probing is what makes σ_L an order of magnitude slower than σ_R
    * in Fig 9 (the paper clips the π_C/σ_L curve at 50–65 ms for this
    * reason). The test only asks whether the count reaches β, so the scan
    * stops at β matches; the chosen m is the one the exact count gives.
    */
  private def longestPrefix(q: Spq): Int = {
    val beta = q.beta.getOrElse(1)
    var m = 1
    while (m < q.length - 1 &&
           index.matchCountCapped(q.path.take(m + 1), q.interval, q.user, beta) >= beta)
      m += 1
    m
  }
}
