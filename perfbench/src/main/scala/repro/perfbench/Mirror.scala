package repro.perfbench

import repro.core._
import repro.hist.Histogram

/** Per-query span times (ns) and work counts of one traced tripQuery. */
final class Trace {
  var partitionNs, shiftNs, splitNs = 0L
  var pathRangesNs, buildMapNs, probeMapNs = 0L
  var histCreateNs, convolveNs = 0L

  var pathRangesCalls, fmSymbols = 0L
  var buildMapOut, firstEdgeRecords = 0L
  var probeMapOut, lastEdgeRecords = 0L
  var dispatches, accepted = 0L
  var relaxWiden, relaxSplit, relaxDropUser, relaxFallback = 0L
  var buckets = 0L

  def spanNs: Long = partitionNs + shiftNs + splitNs + pathRangesNs +
    buildMapNs + probeMapNs + histCreateNs + convolveNs
}

/** An index-answered sub-query and the X the index returned for it, kept for
  * the spot-check against the naive scan.
  */
final case class Answered(q: Spq, x: Array[Double])

/** Procedure 6 replayed from the program's public calls, with a span around
  * each call into a layer: π (`Partitioner.apply`), shift-and-enlarge,
  * σ (`Splitter.apply`), FM backward search
  * (`SNTIndex.pathRanges`), Procedure 3 (`buildMap`), Procedure 4
  * (`probeMap`) and the histogram layer. It must follow
  * `TripQueryProcessor.run` step for step — the traced run checks that it
  * reproduces `run`'s result on every query, so a drift here shows up as
  * `trace.mismatch`, not as silently wrong layer times.
  */
final class Mirror(proc: TripQueryProcessor) {
  // No workload runs a cardinality estimator (its modes are outside the
  // benchmark), so the mirror has no estimate-and-skip branch.
  require(proc.estimator.isEmpty, "the mirror does not replay the cardinality estimator")
  private val index = proc.index
  private val splitter = proc.splitter

  def run(q: Spq, pi: Partitioner, t: Trace, answered: Answered => Unit): TripResult = {
    var s = System.nanoTime()
    val parts = pi(q, index.net)
    var e = System.nanoTime(); t.partitionNs += e - s
    var queue: List[Spq] = parts.sortBy(_.startIdx).toList
    val done = collection.mutable.ArrayBuffer.empty[SubResult]
    var calls = 0
    var guard = 0
    val maxSteps = 200 * (q.length + 1)
    while (queue.nonEmpty && guard < maxSteps) {
      guard += 1
      val qi = queue.head
      val rest = queue.tail
      s = System.nanoTime()
      val effective: TimeInterval = qi.interval match {
        case p: PeriodicInterval if qi.startIdx > 0 =>
          val prev = done.filter(_.endIdx <= qi.startIdx)
          if (prev.isEmpty) p
          else p.shiftAndEnlarge(prev.map(_.min).sum, prev.map(r => r.max - r.min).sum)
        case iv => iv
      }
      e = System.nanoTime(); t.shiftNs += e - s
      val effQ = qi.copy(interval = effective)
      calls += 1
      t.dispatches += 1
      val x = getTravelTimes(effQ, t, answered)
      if (x.nonEmpty) {
        t.accepted += 1
        done += SubResult(qi.startIdx, qi.endIdx, x, qi.relaxed)
        queue = rest
      } else {
        queue = relax(qi, t) ++: rest
      }
    }
    require(queue.isEmpty, s"tripQuery did not terminate within $maxSteps steps")
    val sorted = done.sortBy(_.startIdx).toVector
    s = System.nanoTime()
    val hs = sorted.map(r => Histogram.create(r.x, proc.bucketH))
    e = System.nanoTime(); t.histCreateNs += e - s
    val hist = Histogram.convolveAll(hs)
    t.convolveNs += System.nanoTime() - e
    t.buckets += hist.counts.size
    TripResult(sorted, hist, calls, 0)
  }

  /** Procedure 1 through `Splitter.apply`, classifying the relaxation taken. */
  private def relax(qi: Spq, t: Trace): Vector[Spq] = {
    val s = System.nanoTime()
    val next = splitter(qi)
    t.splitNs += System.nanoTime() - s
    if (next.length == 2) t.relaxSplit += 1
    else if (next.head.relaxed) t.relaxFallback += 1
    else if (qi.user.nonEmpty && next.head.user.isEmpty) t.relaxDropUser += 1
    else t.relaxWiden += 1
    next
  }

  /** Procedure 5 as `SNTIndex.getTravelTimes` runs it, including the β gate
    * and the speed-limit fallback for single fixed-interval segments.
    */
  private def getTravelTimes(q: Spq, t: Trace, answered: Answered => Unit): Array[Double] = {
    var s = System.nanoTime()
    val ranges = index.pathRanges(q.path)
    var e = System.nanoTime(); t.pathRangesNs += e - s
    t.pathRangesCalls += 1
    t.fmSymbols += q.length.toLong * index.partitions.length
    if (ranges.forall { case (st, ed) => st >= ed }) {
      return if (q.length == 1 && !q.interval.isPeriodic) Array(index.net.estimateTT(q.path(0)))
             else Array.empty
    }
    val cap = q.beta.getOrElse(Int.MaxValue)
    s = System.nanoTime()
    val m = index.buildMap(q.path.head, ranges, q.interval, q.user, cap)
    e = System.nanoTime(); t.buildMapNs += e - s
    t.buildMapOut += m.size
    t.firstEdgeRecords += recordCount(q.path.head)
    if (!q.relaxed && q.beta.exists(b => m.size < b)) return Array.empty
    s = System.nanoTime()
    val x = index.probeMap(q.path.last, q.length, m)
    e = System.nanoTime(); t.probeMapNs += e - s
    t.probeMapOut += x.length
    t.lastEdgeRecords += recordCount(q.path.last)
    if (x.isEmpty && q.length == 1 && !q.interval.isPeriodic) Array(index.net.estimateTT(q.path(0)))
    else {
      if (x.nonEmpty) answered(Answered(q, x))
      x
    }
  }

  private def recordCount(edge: Int): Int =
    if (index.records(edge) == null) 0 else index.records(edge).size
}
