package repro.core

import repro.fm.FMIndex
import repro.network.RoadNetwork
import repro.temporal.{BPlusTree, CSSTree, TemporalRecords, TemporalSearch}
import repro.traj.Traj

/** Which temporal-forest variant backs the index (§4.3.1). */
sealed trait TreeType extends Serializable
case object CssForest extends TreeType
case object BtForest extends TreeType

/** The extended SNT-index (§4).
  *
  * Spatial part: one FM-index per temporal partition (W = 1 when temporal
  * partitioning is off, §4.3.2) over the concatenated trajectory string.
  * Temporal part: a forest with one search tree per edge over columnar leaf
  * records extended with (TT, seq, a) (§4.1.3), plus the associative
  * container U mapping a leaf's trajectory reference d — the trajectory's
  * position in the array `build` was given — to its user id for the filter
  * predicate f. Trajectory d's k-th traversal is leaf number
  * `trajOff(d) + k`, and `leafPos` holds that leaf's position in its edge's
  * records.
  *
  * `answerLadder` is Procedure 5 built from Procedure 2 (backward search),
  * Procedure 3 (`scanLadder` over the first edge) and Procedure 4
  * (`probeMap`, which finds each match's last-edge leaf through `leafPos`).
  *
  * `firstEntry(w)` / `lastEntry(w)` bound the leaf entry times of partition w,
  * so a fixed-interval query can skip the partitions it cannot match.
  */
final class SNTIndex(
    val net: RoadNetwork,
    val partitions: Array[FMIndex],
    val firstEntry: Array[Long],
    val lastEntry: Array[Long],
    val records: Array[TemporalRecords],   // indexed by edge id; null = no data
    val search: Array[TemporalSearch],
    val users: Array[Int],                 // U: users(d) drives trajectory d
    val trajOff: Array[Int],               // leaf number of trajectory d's first traversal; trajOff(n) = leaves
    val leafPos: Array[Int],               // position of each leaf in its edge's records
    val tminGlobal: Long,
    val tmaxGlobal: Long,
) extends Serializable {

  /** Procedure 2 across temporal partitions: one ISA range per partition. */
  def pathRanges(path: IndexedSeq[Int]): Array[(Int, Int)] = rangesMeeting(path, Long.MinValue, Long.MaxValue)

  /** Procedure 2 for a query over `interval`: the ranges of `pathRanges(path)`,
    * except that a fixed interval [ts, te) maps every partition whose leaf
    * entry times all miss it to (0, 0) without searching it — no record of
    * that partition can pass buildMap's temporal predicate, so M is the same.
    * Periodic intervals keep every partition. So do single segments: their
    * range costs no rank call, and their empty-range answer (the speed-limit
    * estimate) is not the β-gated answer of an empty scan.
    */
  def pathRanges(path: IndexedSeq[Int], interval: TimeInterval): Array[(Int, Int)] = interval match {
    case FixedInterval(ts, te) if partitions.length > 1 && path.length > 1 => rangesMeeting(path, ts, te)
    case _ => pathRanges(path)
  }

  /** ISA ranges of `path` in the partitions whose entry-time span meets
    * [ts, te); (0, 0) for the others, which are not searched.
    */
  private def rangesMeeting(path: IndexedSeq[Int], ts: Long, te: Long): Array[(Int, Int)] = {
    val out = new Array[(Int, Int)](partitions.length)
    var w = 0
    while (w < partitions.length) {
      out(w) = if (lastEntry(w) < ts || firstEntry(w) >= te) (0, 0) else partitions(w).pathRange(path)
      w += 1
    }
    out
  }

  /** Exact occurrence count of `path` over all partitions (the c_P of §4.4). */
  def countPath(path: IndexedSeq[Int]): Long = {
    var s = 0L
    for ((st, ed) <- pathRanges(path)) s += (ed - st)
    s
  }

  /** Procedure 3 — scan the first edge's temporal index and keep the first β
    * records matching the temporal predicate, the ISA range of the record's
    * partition, and the user filter: the map M, as their positions. The
    * one-rung ladder of `scanLadder`.
    */
  def buildMap(edge: Int, ranges: Array[(Int, Int)], interval: TimeInterval,
               user: Option[Int], beta: Int, work: ScanWork = new ScanWork): SNTIndex.Matches =
    scanLadder(edge, ranges, Array(interval), user, beta, work).matches(0, beta)

  /** Procedure 3 for the rungs of a ladder (Procedure 1): nested windows of
    * one kind, innermost first. One scan tags each record that passes the
    * ISA-range and user tests with the innermost rung containing its entry
    * time, so rung k's records are those tagged k or less. The scan covers
    * the outermost rung — the positions [lowerBound(ts), lowerBound(te)) of
    * a fixed window, every position for a periodic one — and stops once
    * rung 0 holds `cap` records; every rung's first `cap` records then lie
    * in the part scanned.
    */
  def scanLadder(edge: Int, ranges: Array[(Int, Int)], rungs: Array[_ <: TimeInterval],
                 user: Option[Int], cap: Int, work: ScanWork = new ScanWork): SNTIndex.LadderScan = {
    var k = 1
    while (k < rungs.length) {
      val inner = rungs(k - 1)
      val r = rungs(k)
      require(r.isPeriodic == inner.isPeriodic && r.ts <= inner.ts && r.te >= inner.te,
        s"ladder rung $r does not contain rung $inner")
      k += 1
    }
    val last = rungs.length - 1
    val inRung = new Array[Int](rungs.length) // records whose innermost rung is k
    val recs = records(edge)
    if (recs == null) return new SNTIndex.LadderScan(recs, Array.empty, Array.empty, 0, inRung)
    val outer = rungs(last)
    val from = if (outer.isPeriodic) 0 else search(edge).lowerBound(outer.ts)
    val to = if (outer.isPeriodic) recs.size else search(edge).lowerBound(outer.te)
    var pos = new Array[Int](32)              // positions of the tagged records, ascending
    var tag = new Array[Int](32)
    var found = 0
    var i = from
    while (i < to && inRung(0) < cap) {
      val t = recs.t(i)
      if (outer.contains(t) && matches(recs, i, ranges, user)) {
        k = 0
        while (k < last && !rungs(k).contains(t)) k += 1
        if (found == pos.length) {
          pos = java.util.Arrays.copyOf(pos, 2 * found)
          tag = java.util.Arrays.copyOf(tag, 2 * found)
        }
        pos(found) = i
        tag(found) = k
        found += 1
        inRung(k) += 1
      }
      i += 1
    }
    work.firstEdgeRecords += i - from
    new SNTIndex.LadderScan(recs, pos, tag, found, inRung)
  }

  /** Procedure 3's non-temporal tests: the record lies in its partition's
    * ISA range of the path, and its trajectory passes the user filter.
    */
  @inline private def matches(recs: TemporalRecords, i: Int, ranges: Array[(Int, Int)],
                              user: Option[Int]): Boolean = {
    val (st, ed) = ranges(recs.w(i))
    if (recs.isa(i) < st || recs.isa(i) >= ed) false
    else user.isEmpty || users(recs.d(i)) == user.get
  }

  /** Procedure 4 by position, for a map M that Procedure 3 built on the
    * first edge of a path of `l` segments whose last edge is `edge`. The
    * match at first-edge position p is trajectory d entering the path at its
    * traversal seq — that leaf lies in the path's ISA range — so the
    * occurrence ends at traversal seq + l − 1, whose leaf on `edge` is at
    * position leafPos(trajOff(d) + seq + l − 1). Its travel time is that
    * leaf's a minus (a − TT) of the first-edge leaf. Sorted by last-edge
    * position, the times come in the order a scan of the last edge finds them.
    */
  def probeMap(edge: Int, l: Int, m: SNTIndex.Matches, work: ScanWork = new ScanWork): Array[Double] = {
    val first = m.recs
    val last = records(edge)
    val n = m.size
    val found = new Array[Long](n) // last-edge position · 2^32 + first-edge position
    var j = 0
    while (j < n) {
      val p = m.pos(j)
      found(j) = (leafPos(trajOff(first.d(p)) + first.seq(p) + l - 1).toLong << 32) | p
      j += 1
    }
    work.lastEdgeRecords += n
    java.util.Arrays.sort(found)
    val out = new Array[Double](n)
    j = 0
    while (j < n) {
      val p = found(j).toInt
      out(j) = last.a((found(j) >>> 32).toInt) - (first.a(p) - first.tt(p))
      j += 1
    }
    out
  }

  /** Rejects a path holding an edge id outside [1, numEdges]: id 0 is the
    * FM `$` separator, and the FM-index has no symbol for the others.
    */
  def requireEdges(path: IndexedSeq[Int]): Unit = {
    val bad = path.indexWhere(e => e < 1 || e > net.numEdges)
    require(bad < 0, s"edge id ${path(bad)} at path position $bad is outside [1, ${net.numEdges}]")
  }

  /** Count path matches under the predicates, stopping at `cap` — used by the
    * σ_L longest-prefix search and by tests.
    */
  def matchCountCapped(path: IndexedSeq[Int], interval: TimeInterval,
                       user: Option[Int], cap: Int): Int = {
    requireEdges(path)
    val ranges = pathRanges(path, interval)
    if (ranges.forall { case (st, ed) => st >= ed }) 0
    else scanLadder(path.head, ranges, Array(interval), user, cap).held(0)
  }

  /** Procedure 5 for the one window of `q`. */
  def getTravelTimes(q: Spq, work: ScanWork = new ScanWork): Array[Double] =
    answerLadder(q, Array(q.interval), work)._2

  /** Procedure 5 — travel times of all (≤ β) trajectories matching
    * spq(P, I, f, β), for each window I of a ladder: nested windows,
    * innermost first, that stand in for `q`'s own interval. Procedure 1
    * widens a periodic sub-query through such a ladder; a fixed window is
    * its own one rung. One FM search over the outermost rung and one
    * first-edge scan serve every rung. Returns the first rung whose map M
    * passes the β gate, and its X, or else the speed-limit fallback below;
    * (−1, empty) when neither applies.
    *
    * The β gate: the paper checks `|M| < β ∧ isPeriodic(I)` and processes
    * fixed-interval queries "provided by Procedure 1" regardless of β. We
    * gate every non-relaxed query on β (periodic or fixed) and exempt only
    * the Procedure-1 fallback (`relaxed`), which both terminates and makes
    * β meaningful for the SPQ-Only workload (Figs 5c/7c sweep β there) —
    * see DESIGN.md. A query that is exempt, or sets no β, needs a
    * non-empty M.
    */
  def answerLadder(q: Spq, rungs: Array[_ <: TimeInterval],
                   work: ScanWork = new ScanWork): (Int, Array[Double]) = {
    requireEdges(q.path)
    require(rungs.nonEmpty, s"answerLadder needs at least one rung, got none for path ${q.path}")
    val outer = rungs(rungs.length - 1)
    val ranges = pathRanges(q.path, outer)
    val occurs = ranges.exists { case (st, ed) => st < ed }
    val gated = !q.relaxed && q.beta.nonEmpty
    if (occurs) {
      val need = if (gated) q.beta.get else 1
      val cap = q.beta.getOrElse(Int.MaxValue)
      val scan = scanLadder(q.path.head, ranges, rungs, q.user, cap, work)
      var k = 0
      while (k < rungs.length) {
        // Each record of M starts an occurrence of the path, so X is non-empty.
        if (scan.held(k) >= need) return (k, probeMap(q.path.last, q.length, scan.matches(k, cap), work))
        k += 1
      }
    }
    // Procedure 5 line 12: a single fixed-interval segment that the index
    // leaves without a sample gets its speed-limit estimate — under the
    // β gate only when the segment does not occur at all.
    if (q.length == 1 && !outer.isPeriodic && (!occurs || !gated))
      (rungs.length - 1, Array(net.estimateTT(q.path(0))))
    else (-1, Array.empty[Double])
  }

  // ---- memory accounting (Fig 10a components) ---------------------------

  /** Segment-counter arrays C and the two entry-time bounds, one each per
    * partition — grows linearly with W.
    */
  def memC: Long = partitions.map(_.counts.length.toLong * 4 + 16).sum
  /** Wavelet trees, one per partition. */
  def memWT: Long = partitions.map(_.bwtTree.memoryBytes).sum
  /** Associative container U (d → u). */
  def memUser: Long = users.length.toLong * 4 + 16
  /** Temporal forest: leaf columns, search structures and the leaf
    * numbering (`trajOff`, `leafPos`).
    */
  def memForest: Long = {
    var s = trajOff.length.toLong * 4 + 16 + leafPos.length.toLong * 4 + 16
    var e = 0
    while (e < records.length) {
      if (records(e) != null) s += records(e).memoryBytes + search(e).memoryBytes
      e += 1
    }
    s
  }
}

/** Work counts of the index's scans, summed over the calls it is given to. */
final class ScanWork {
  /** Records examined by first-edge scans (Procedure 3). */
  var firstEdgeRecords: Long = 0L
  /** Last-edge leaves read by Procedure 4, one per match. */
  var lastEdgeRecords: Long = 0L
}

object SNTIndex {

  /** The records a ladder scan tagged, in position order, with their
    * innermost rung; `inRung(k)` counts those tagged k.
    */
  final class LadderScan(recs: TemporalRecords, pos: Array[Int], tag: Array[Int], found: Int,
                         inRung: Array[Int]) {
    /** Records of rung k (tagged k or less) in the part scanned. */
    def held(k: Int): Int = {
      var s = 0
      var j = 0
      while (j <= k) { s += inRung(j); j += 1 }
      s
    }

    /** Rung k's map M of Procedure 3: its first `cap` records in position
      * order — the records a scan of rung k alone keeps.
      */
    def matches(k: Int, cap: Int): Matches = {
      val m = new Matches(recs, new Array[Int](math.min(held(k), cap)))
      var i = 0
      var j = 0
      while (i < m.size) {
        if (tag(j) <= k) { m.pos(i) = pos(j); i += 1 }
        j += 1
      }
      m
    }
  }

  /** A map M of Procedure 3: the ascending positions `pos` of the first
    * edge's records `recs` that it keeps. The record at each position is a
    * trajectory d entering the path at its traversal seq.
    */
  final class Matches(val recs: TemporalRecords, val pos: Array[Int]) {
    def size: Int = pos.length
  }

  /** Bits of a trajectory's segment position `seq`: routes are a few hundred
    * segments, and `build` rejects trajectories of 2^SeqBits segments or
    * more, so every seq fits the `Short` leaf column.
    */
  private val SeqBits = 14

  /** Build the index from in-memory trajectories.
    *
    * @param trajs         leaves refer to a trajectory by its position here, so ids may repeat
    * @param partitionDays temporal partition size in days (§4.3.2);
    *                      None = single partition (FULL)
    */
  def build(net: RoadNetwork, trajs: Array[Traj], treeType: TreeType = CssForest,
            partitionDays: Option[Int] = None): SNTIndex = {
    require(trajs.nonEmpty, "no trajectories")
    var leaves = 0L
    trajs.foreach { t =>
      require(t.length > 0, s"trajectory ${t.id} has no segments")
      require(t.times.length == t.length && t.tts.length == t.length,
        s"trajectory ${t.id} has ${t.length} edges, ${t.times.length} entry times and ${t.tts.length} travel times")
      require(t.length < (1 << SeqBits),
        s"trajectory ${t.id} has ${t.length} segments; at most ${(1 << SeqBits) - 1} are supported")
      val bad = t.edges.indexWhere(e => e < 1 || e > net.numEdges)
      require(bad < 0, s"trajectory ${t.id} has edge id ${t.edges(bad)} at position $bad, outside [1, ${net.numEdges}]")
      val badT = t.times.indexWhere(s => s < 0 || s > Int.MaxValue)
      require(badT < 0, s"trajectory ${t.id} has entry time ${t.times(badT)} at position $badT, outside [0, 2^31)")
      val badTT = t.tts.indexWhere(tt => !(tt > 0 && tt < Double.PositiveInfinity))
      require(badTT < 0, s"trajectory ${t.id} has travel time ${t.tts(badTT)} at position $badTT; it must be finite and > 0")
      leaves += t.length
    }
    require(leaves <= Int.MaxValue, s"$leaves traversals; at most ${Int.MaxValue} are supported")
    val tmin = trajs.iterator.map(_.t0).min
    val tmax = trajs.iterator.map(t => t.times(t.length - 1) + math.ceil(t.tts(t.length - 1)).toLong).max + 1

    // Assign each trajectory to a temporal partition by its start time.
    val rawW: Array[Int] = partitionDays match {
      case Some(dDays) => trajs.map(t => ((t.t0 - tmin) / (TimeInterval.DaySec * dDays)).toInt)
      case None        => Array.fill(trajs.length)(0)
    }
    val wIds = rawW.distinct.sorted
    val dense = wIds.zipWithIndex.toMap
    val w = rawW.map(dense)
    val numW = wIds.length
    require(numW < (1 << 15), s"$numW temporal partitions; at most ${(1 << 15) - 1} are supported")

    // One trajectory string per partition; remember each trajectory's offset.
    val sigma = net.numEdges + 1
    val texts = Array.fill(numW)(Array.newBuilder[Int])
    val offsets = new Array[Int](trajs.length)
    val lens = new Array[Int](numW)
    var i = 0
    while (i < trajs.length) {
      val p = w(i)
      offsets(i) = lens(p)
      texts(p) ++= trajs(i).edges
      texts(p) += 0
      lens(p) += trajs(i).length + 1
      i += 1
    }

    val fms = new Array[FMIndex](numW)
    val isas = new Array[Array[Int]](numW)
    var p = 0
    while (p < numW) {
      val (fm, isa) = FMIndex.buildWithIsa(texts(p).result(), sigma)
      fms(p) = fm; isas(p) = isa
      p += 1
    }

    // Temporal forest. Trajectory i's k-th traversal is leaf trajOff(i) + k.
    // A counting sort on edge lists each edge's leaves in build order;
    // sorting an edge's leaves by entry time, equal times in build order,
    // gives its records, and leafPos(g) is where leaf g lands. The counting
    // pass also bounds each partition's leaf entry times.
    val firstEntry = Array.fill(numW)(Long.MaxValue)
    val lastEntry = Array.fill(numW)(Long.MinValue)
    val trajOff = new Array[Int](trajs.length + 1)
    val leafTraj = new Array[Int](leaves.toInt)
    val edgeStart = new Array[Int](net.numEdges + 2) // edge e's leaves are [edgeStart(e), edgeStart(e + 1))
    i = 0
    while (i < trajs.length) {
      val tr = trajs(i)
      val wi = w(i)
      trajOff(i + 1) = trajOff(i) + tr.length
      var k = 0
      while (k < tr.length) {
        edgeStart(tr.edges(k) + 1) += 1
        leafTraj(trajOff(i) + k) = i
        firstEntry(wi) = math.min(firstEntry(wi), tr.times(k))
        lastEntry(wi) = math.max(lastEntry(wi), tr.times(k))
        k += 1
      }
      i += 1
    }
    var e = 1
    while (e < edgeStart.length) { edgeStart(e) += edgeStart(e - 1); e += 1 }
    val byEdge = new Array[Int](leafTraj.length)
    val next = edgeStart.clone()
    var g = 0
    while (g < byEdge.length) {
      val d = leafTraj(g)
      val edge = trajs(d).edges(g - trajOff(d))
      byEdge(next(edge)) = g
      next(edge) += 1
      g += 1
    }
    val leafPos = new Array[Int](leafTraj.length)
    val records = new Array[TemporalRecords](net.numEdges + 1)
    val search = new Array[TemporalSearch](net.numEdges + 1)
    e = 1
    while (e <= net.numEdges) {
      val from = edgeStart(e)
      val n = edgeStart(e + 1) - from
      if (n > 0) {
        val t = new Array[Int](n)
        var j = 0
        while (j < n) {
          val g = byEdge(from + j)
          val d = leafTraj(g)
          t(j) = trajs(d).times(g - trajOff(d)).toInt
          j += 1
        }
        val order = TemporalRecords.timeOrder(t)
        val r = new TemporalRecords(new Array[Int](n), new Array[Int](n), new Array[Int](n),
          new Array[Double](n), new Array[Double](n), new Array[Short](n), new Array[Short](n))
        var p = 0
        while (p < n) {
          val g = byEdge(from + order(p))
          val d = leafTraj(g)
          val k = g - trajOff(d)
          val tr = trajs(d)
          r.t(p) = t(order(p))
          r.isa(p) = isas(w(d))(offsets(d) + k)
          r.d(p) = d
          r.tt(p) = tr.tts(k)
          r.a(p) = tr.cum(k)
          r.seq(p) = k.toShort
          r.w(p) = w(d).toShort
          leafPos(g) = p
          p += 1
        }
        records(e) = r
        search(e) = treeType match {
          case CssForest => new CSSTree(r.t)
          case BtForest  => new BPlusTree(r.t)
        }
      }
      e += 1
    }
    new SNTIndex(net, fms, firstEntry, lastEntry, records, search, trajs.map(_.user), trajOff, leafPos,
                 tmin, tmax)
  }
}
