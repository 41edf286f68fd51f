package repro.testutil

import repro.core._
import repro.hist.Histogram

/** Procedure 6 exactly as it was first written, kept as the reference the
  * optimised `TripQueryProcessor.run` is checked against: it re-filters the
  * completed sub-results on every dispatch, sums boxed minima and ranges of
  * their samples, and builds and convolves the histograms with maps.
  */
final class ReferenceTripQuery(proc: TripQueryProcessor) {
  private val index = proc.index
  private val splitter = proc.splitter

  def run(q: Spq, pi: Partitioner): TripResult = {
    var queue: List[Spq] = pi(q, index.net).sortBy(_.startIdx).toList
    val done = collection.mutable.ArrayBuffer.empty[SubResult]
    var calls = 0
    var skips = 0
    var guard = 0
    val maxSteps = 200 * (q.length + 1)
    while (queue.nonEmpty && guard < maxSteps) {
      guard += 1
      val qi = queue.head
      val rest = queue.tail
      val effective: TimeInterval = qi.interval match {
        case p: PeriodicInterval if qi.startIdx > 0 =>
          val prev = done.filter(_.endIdx <= qi.startIdx)
          if (prev.isEmpty) p
          else p.shiftAndEnlarge(prev.map(_.x.min).sum, prev.map(r => r.x.max - r.x.min).sum)
        case iv => iv
      }
      val effQ = qi.copy(interval = effective)
      val skipByEstimate = proc.estimator.exists { est =>
        !qi.relaxed && qi.beta.exists(b => est.estimate(effQ) < b)
      }
      if (skipByEstimate) {
        skips += 1
        queue = splitter(qi) ++: rest
      } else {
        calls += 1
        val x = index.getTravelTimes(effQ)
        if (x.nonEmpty) {
          done += SubResult(qi.startIdx, qi.endIdx, x, qi.relaxed)
          queue = rest
        } else {
          queue = splitter(qi) ++: rest
        }
      }
    }
    require(queue.isEmpty, s"tripQuery did not terminate within $maxSteps steps")
    val sorted = done.sortBy(_.startIdx).toVector
    val hist = sorted.map(r => ReferenceTripQuery.create(r.x.toSeq, proc.bucketH))
      .reduceLeft(ReferenceTripQuery.convolve)
    TripResult(sorted, hist, calls, skips)
  }
}

object ReferenceTripQuery {
  /** createHistogram(X) through `groupBy`. */
  def create(xs: Iterable[Double], h: Double): Histogram =
    Histogram(h, xs.groupBy(x => math.floor(x / h).toInt).map { case (b, g) => b -> g.size.toDouble })

  /** H ∗ H′ by hashing every pair of buckets. */
  def convolve(a: Histogram, b: Histogram): Histogram = {
    require(a.h == b.h, s"bucket width mismatch: ${a.h} vs ${b.h}")
    val m = collection.mutable.HashMap.empty[Int, Double]
    for ((b1, c1) <- a.counts; (b2, c2) <- b.counts)
      m.update(b1 + b2, m.getOrElse(b1 + b2, 0.0) + c1 * c2)
    Histogram(a.h, m.toMap)
  }
}
