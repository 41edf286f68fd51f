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
    firstEdgeRecords: Long = 0L, // records examined by first-edge scans (Procedure 3)
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
    val work = new ScanWork
    val maxSteps = 200 * (q.length + 1) // safety net; Procedure 1 terminates long before
    while (queue.nonEmpty && guard < maxSteps) {
      val qi = queue.head
      val rest = queue.tail
      var r: SubResult = null // the accepted sub-result, if any
      var failed = qi         // else the query Procedure 1 relaxes
      qi.interval match {
        case p: PeriodicInterval =>
          val l = widenLadder(qi, p, sumMin, sumRange, maxSteps - guard, work)
          guard += l.steps
          calls += l.calls
          skips += l.steps - l.calls
          r = l.accepted
          failed = l.last
        case _ => // a fixed interval: no shift-and-enlarge, no ladder
          guard += 1
          if (estimator.exists(est => !qi.relaxed && qi.beta.exists(b => est.estimate(qi) < b))) {
            skips += 1
          } else {
            calls += 1
            val x = index.getTravelTimes(qi, work)
            if (x.nonEmpty) r = SubResult(qi.startIdx, qi.endIdx, x, qi.relaxed)
          }
      }
      if (r != null) {
        done += r
        sumMin += r.min
        sumRange += r.max - r.min
        queue = rest
      } else {
        queue = splitter(failed) ++: rest
      }
    }
    require(queue.isEmpty, s"tripQuery did not terminate within $maxSteps steps")
    val sorted = done.sortBy(_.startIdx).toVector
    val hist = Histogram.convolveAll(sorted.map(r => Histogram.create(r.x, bucketH)))
    TripResult(sorted, hist, calls, skips, work.firstEdgeRecords)
  }

  /** Procedure 1's widen ladder from a periodic sub-query, evaluated as one
    * unit: the rungs `splitter.ladder(base)`, each shift-and-enlarged at
    * dispatch (Procedure 6 lines 3–5), relative to the unshifted rung so
    * relaxations don't double-shift. No sub-result is accepted between
    * rungs, so S and R stay fixed and the effective rungs stay nested. One
    * FM search and one first-edge scan from the innermost dispatched rung
    * then serve every rung. The rungs are walked in order as the rung-by-rung
    * loop dispatches them: each is one dispatch step, an estimator skip when
    * its estimate is below β and an index call otherwise, until a dispatched
    * rung holds β records (one when β is unset).
    *
    * @param maxRungs dispatch steps left before the safety net
    */
  private def widenLadder(qi: Spq, base: PeriodicInterval, sumMin: Double, sumRange: Double,
                          maxRungs: Int, work: ScanWork): TripQueryProcessor.Ladder = {
    val rungs = splitter.ladder(base).take(maxRungs)
    val effective = rungs.map(r => if (qi.startIdx > 0) r.shiftAndEnlarge(sumMin, sumRange) else r)
    def skipped(k: Int): Boolean =
      estimator.exists(est => !qi.relaxed && qi.beta.exists(b => est.estimate(qi.copy(interval = effective(k))) < b))
    // Procedure 5's β gate; a relaxed query only needs a non-empty M.
    val need = if (qi.relaxed) 1 else qi.beta.getOrElse(1)
    val cap = qi.beta.getOrElse(Int.MaxValue)
    var k = 0
    while (k < rungs.length && skipped(k)) k += 1
    val first = k
    var calls = 0
    var scan: SNTIndex.LadderScan = null
    var hit = -1
    if (first < rungs.length) {
      val ranges = index.pathRanges(qi.path)
      if (ranges.exists { case (st, ed) => st < ed })
        scan = index.scanLadder(qi.path.head, ranges, effective.drop(first).toArray, qi.user, cap, work)
      while (k < rungs.length && hit < 0) {
        if (k == first || !skipped(k)) {
          calls += 1
          if (scan != null && scan.held(k - first) >= need) hit = k
        }
        k += 1
      }
    }
    if (hit >= 0) {
      // Each record of M starts an occurrence of the path, so X is non-empty.
      val x = index.probeMap(qi.path.last, qi.length, scan.map(hit - first, cap))
      new TripQueryProcessor.Ladder(hit + 1, calls, SubResult(qi.startIdx, qi.endIdx, x, qi.relaxed), qi)
    } else {
      new TripQueryProcessor.Ladder(rungs.length, calls, null, qi.copy(interval = rungs.last))
    }
  }
}

object TripQueryProcessor {
  /** What one widen ladder did: dispatch steps taken, index calls among them,
    * and the accepted sub-result, or null and the last rung's query, which
    * Procedure 1 relaxes next.
    */
  private final class Ladder(val steps: Int, val calls: Int, val accepted: SubResult, val last: Spq)
}
