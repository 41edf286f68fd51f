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
    indexCalls: Int,      // ladder rungs sent to the index, up to the accepted one
    estimatorSkips: Int,  // ladder rungs passed over on the estimate alone
    firstEdgeRecords: Long = 0L, // records examined by first-edge scans (Procedure 3)
    lastEdgeRecords: Long = 0L,  // last-edge leaves read by Procedure 4
    pathSearches: Long = 0L,     // partitions searched by Procedure 2
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
  * When a cardinality estimator is supplied, a non-relaxed sub-query skips
  * the rungs of its ladder before the first whose estimate β̂ reaches β
  * without touching the temporal indexes (§4.4): each counts as an
  * estimator skip and cannot be accepted.
  */
final class TripQueryProcessor(
    val index: SNTIndex,
    val splitter: Splitter,
    val bucketH: Double = 10.0,
    val estimator: Option[CardinalityEstimator] = None,
) extends Serializable {
  Histogram.requireWidth(bucketH)

  def run(q: Spq, pi: Partitioner): TripResult = {
    index.requireEdges(q.path)
    // π emits sub-queries in path order and a split's halves go to the head
    // of the queue, so sub-queries complete in path order.
    var queue: List[Spq] = pi(q, index.net).toList
    val done = Vector.newBuilder[SubResult]
    // S and R of shift-and-enlarge: sums of the minima and ranges of every
    // accepted sub-result, all of which precede the sub-query being
    // dispatched. Both are 0 until the first sub-result is accepted.
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
      // Every sub-query is a ladder, one dispatch step per rung. Periodic
      // rungs are shift-and-enlarged at dispatch (Procedure 6 lines 3–5),
      // relative to the unshifted rung so relaxations don't double-shift. No
      // sub-result is accepted between rungs, so S and R stay fixed and the
      // shifted rungs stay nested.
      val ladder = splitter.ladder(qi.interval).take(maxSteps - guard)
      val rungs = ladder.map {
        case p: PeriodicInterval => p.shiftAndEnlarge(sumMin, sumRange)
        case r => r
      }.toArray
      val first = (estimator, qi.beta) match {
        case (Some(est), Some(b)) if !qi.relaxed => est.firstRung(qi, rungs, b)
        case _ => 0
      }
      val (hit, x) = if (first == rungs.length) (-1, null) else index.answerLadder(qi, rungs.drop(first), work)
      // The rungs up to the accepted one, or all of them, each took a step:
      // an estimator skip before `first`, an index call from it on.
      val steps = if (hit >= 0) first + hit + 1 else rungs.length
      guard += steps
      skips += first
      calls += steps - first
      if (hit >= 0) {
        val r = SubResult(qi.startIdx, qi.endIdx, x, qi.relaxed)
        done += r
        sumMin += r.min
        sumRange += r.max - r.min
        queue = rest
      } else {
        queue = splitter(qi.copy(interval = ladder.last)) ++: rest
      }
    }
    require(queue.isEmpty, {
      val h = queue.head
      s"tripQuery did not terminate within $maxSteps steps: sub-query [${h.startIdx}, ${h.endIdx}) " +
        s"with interval ${h.interval}, user ${h.user}, β ${h.beta} and relaxed = ${h.relaxed} is still queued"
    })
    val sub = done.result()
    val hist = Histogram.convolveAll(sub.map(r => Histogram.create(r.x, bucketH)))
    TripResult(sub, hist, calls, skips, work.firstEdgeRecords, work.lastEdgeRecords, work.pathSearches)
  }
}
