package repro.core

import repro.hist.HistogramStore

/** Estimator modes of §4.4. Fast modes assume a uniform time-of-day
  * distribution (Eq. 1); Acc modes use the per-edge time-of-day histograms
  * of the Histogram Store (Eq. 2). BT modes approximate the fixed-time-frame
  * selectivity with Eq. 3 (the paper's B+-tree cannot count ranges); CSS
  * modes count the range exactly with two positional lookups.
  */
sealed trait EstimatorMode extends Serializable { def name: String }
case object IsaOnly extends EstimatorMode { val name = "ISA" }
case object BtFast  extends EstimatorMode { val name = "BT-Fast" }
case object BtAcc   extends EstimatorMode { val name = "BT-Acc" }
case object CssFast extends EstimatorMode { val name = "CSS-Fast" }
case object CssAcc  extends EstimatorMode { val name = "CSS-Acc" }

/** β̂ = sel_tod · sel_tf · sel_u · c_P (§4.4) with c_P = Σ_w (ed_w − st_w)
  * from the FM-index, sel_u = 1/10 (Selinger default).
  */
final class CardinalityEstimator(index: SNTIndex, store: HistogramStore,
                                 val mode: EstimatorMode) extends Serializable {

  def estimate(q: Spq): Double = estimate(q, index.countPath(q.path))

  /** The first of `rungs`, windows that stand in for `q`'s interval, whose
    * estimate β̂ reaches `beta`, or `rungs.length` if none does: the rungs
    * before it are skipped on the estimate alone (§4.4). c_P does not depend
    * on the window, so it is counted once. On the nested rungs of a ladder
    * β̂ never falls, since sel_tod cannot shrink as the window grows, so
    * every rung from the returned one reaches β too.
    */
  def firstRung(q: Spq, rungs: Array[_ <: TimeInterval], beta: Int): Int = {
    val cP = index.countPath(q.path)
    var k = 0
    while (k < rungs.length && estimate(q.copy(interval = rungs(k)), cP) < beta) k += 1
    k
  }

  /** β̂ of `q` given its path's c_P. */
  private def estimate(q: Spq, pathCount: Long): Double = {
    val cP = pathCount.toDouble
    if (mode == IsaOnly) return cP
    val e0 = q.path.head

    val selTod = q.interval match {
      case p: PeriodicInterval =>
        mode match {
          // Eq. 2; a window of a day or more holds every time of day, as in Eq. 1
          case BtAcc | CssAcc if p.sizeSec < TimeInterval.DaySec => store.todSelectivity(e0, p.ts, p.te)
          case _ => math.min(1.0, p.sizeSec.toDouble / TimeInterval.DaySec) // Eq. 1
        }
      case _ => 1.0
    }

    val selTf = q.interval match {
      case FixedInterval(ts, te) =>
        val recs = index.records(e0)
        if (recs == null || recs.size == 0) 0.0
        else mode match {
          case CssFast | CssAcc =>
            val lo = index.search(e0).lowerBound(ts)
            val hi = index.search(e0).lowerBound(te)
            (hi - lo).toDouble / recs.size
          case _ => // Eq. 3
            val span = (recs.maxKey - recs.minKey).toDouble
            if (span <= 0) 1.0
            else math.min(1.0, math.max(0.0, (te - ts).toDouble / span))
        }
      case _ => 1.0
    }

    val selU = if (q.user.nonEmpty) 0.1 else 1.0
    cP * selTod * selTf * selU
  }
}
