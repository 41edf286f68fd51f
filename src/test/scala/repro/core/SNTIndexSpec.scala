package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.network.NetworkGen
import repro.testutil.Fixtures
import repro.traj.{Traj, TrajectoryGen}

import scala.util.Random

/** SNT-index correctness: the paper's worked example plus randomized
  * differential tests against the naive strict-path scan, for both tree
  * types and with/without temporal partitioning.
  */
class SNTIndexSpec extends AnyFunSuite {
  import Fixtures._

  private val idx = SNTIndex.build(paperNetwork, paperTrajs)

  private def sortedTT(xs: Iterable[Double]): Seq[Double] = xs.toSeq.sorted.map(x => math.round(x * 1e6) / 1e6)

  test("paper §2.3: spq(⟨A,B,E⟩, [0,15), u=u1, 2) returns durations {10, 11}") {
    val q = Spq(Vector(A, B, E), FixedInterval(0, 15), Some(u1), Some(2), 0)
    assert(sortedTT(idx.getTravelTimes(q)) == Seq(10.0, 11.0))
  }

  test("paper §2.3: Q1 = spq(⟨A,B⟩, [0,15), ∅, 3) yields H1 = {[6,7):2, [7,8):1}") {
    val q = Spq(Vector(A, B), FixedInterval(0, 15), None, Some(3), 0)
    val x = idx.getTravelTimes(q)
    assert(sortedTT(x) == Seq(6.0, 6.0, 7.0))
  }

  test("paper §2.3: Q2 = spq(⟨E⟩, [0,15), ∅, 3) yields H2 = {[4,5):2, [5,6):1}") {
    val q = Spq(Vector(E), FixedInterval(0, 15), None, Some(3), 0)
    assert(sortedTT(idx.getTravelTimes(q)) == Seq(4.0, 4.0, 5.0))
  }

  test("user filter u2 restricts to tr1 and tr2") {
    val q = Spq(Vector(A), FixedInterval(0, 100), Some(u2), None, 0)
    assert(sortedTT(idx.getTravelTimes(q)) == Seq(3.0, 4.0))
  }

  test("countPath matches the naive occurrence count on the example set") {
    for (p <- Seq(Vector(A), Vector(A, B), Vector(A, B, E), Vector(A, C, D, E), Vector(E), Vector(B, F)))
      assert(idx.countPath(p) == naiveCountPath(paperTrajs, p), s"path=$p")
  }

  test("β caps the number of returned travel times") {
    val q = Spq(Vector(A), FixedInterval(0, 100), None, Some(2), 0)
    assert(idx.getTravelTimes(q).length == 2)
  }

  test("non-relaxed query below β returns empty") {
    val q = Spq(Vector(A, B, E), FixedInterval(0, 15), Some(u1), Some(5), 0)
    assert(idx.getTravelTimes(q).isEmpty)
  }

  test("relaxed query returns whatever exists regardless of β") {
    val q = Spq(Vector(A, B, E), FixedInterval(0, 15), None, Some(50), 0, relaxed = true)
    assert(idx.getTravelTimes(q).length == 2) // tr0 and tr3 traverse ⟨A,B,E⟩
  }

  test("single-segment fixed query with no data falls back to estimateTT") {
    // Segment F in an interval with no entries.
    val q = Spq(Vector(F), FixedInterval(100, 200), None, None, 0)
    val x = idx.getTravelTimes(q)
    assert(x.length == 1)
    assert(math.abs(x(0) - paperNetwork.estimateTT(F)) < 1e-9)
  }

  test("a single fixed segment that never occurs gets the speed-limit estimate, also under β") {
    // Neither tr0 nor tr1 traverses F; C carries one traversal, too few for β = 3.
    val index = SNTIndex.build(paperNetwork, paperTrajs.take(2))
    assert(index.getTravelTimes(Spq(Vector(F), FixedInterval(0, 100), None, Some(3), 0)).toSeq ==
           Seq(paperNetwork.estimateTT(F)))
    assert(index.getTravelTimes(Spq(Vector(C), FixedInterval(0, 100), None, Some(3), 0)).isEmpty)
    assert(index.getTravelTimes(Spq(Vector(F), PeriodicInterval(0, 900), None, Some(3), 0)).isEmpty)
  }

  test("multi-segment query with empty ISA range returns empty, not fallback") {
    val q = Spq(Vector(E, A), FixedInterval(0, 100), None, None, 0)
    assert(idx.getTravelTimes(q).isEmpty)
  }

  test("periodic interval filters by time of day") {
    // All example entries are within seconds 0–12 of day 0; a periodic window
    // [0, 5) keeps only entries with tod ∈ {0,2,4}.
    val q = Spq(Vector(A), PeriodicInterval(0, 5), None, None, 0)
    val x = idx.getTravelTimes(q)
    assert(x.length == 3) // tr0 (t=0), tr1 (t=2), tr2 (t=4)
  }

  test("periodic window recurs every 24h") {
    val day = 86400L
    val shifted = paperTrajs.map(t => t.copy(times = t.times.map(_ + 3 * day)))
    val idx2 = SNTIndex.build(paperNetwork, shifted)
    val q = Spq(Vector(A), PeriodicInterval(0, 5), None, None, 0)
    assert(idx2.getTravelTimes(q).length == 3)
  }

  test("matchCountCapped counts strict-path matches under predicates") {
    assert(idx.matchCountCapped(Vector(A, B), FixedInterval(0, 15), None, Int.MaxValue) == 3)
    assert(idx.matchCountCapped(Vector(A, B), FixedInterval(0, 15), Some(u1), Int.MaxValue) == 2)
    assert(idx.matchCountCapped(Vector(A, B), FixedInterval(0, 15), None, 2) == 2)
  }

  test("getTravelTimes and matchCountCapped reject an edge id outside [1, numEdges]") {
    // Edge 0 is the FM `$` separator; the FM-index has no symbol for the others.
    for (bad <- Seq(0, -1, paperNetwork.numEdges + 1); path <- Seq(Vector(bad), Vector(A, bad));
         iv <- Seq(FixedInterval(0, 15), PeriodicInterval(0, 900))) {
      val msg = s"edge id $bad at path position ${path.length - 1} is outside [1, ${paperNetwork.numEdges}]"
      val e1 = intercept[IllegalArgumentException](idx.getTravelTimes(Spq(path, iv, None, Some(2), 0)))
      assert(e1.getMessage.contains(msg), s"path=$path iv=$iv")
      val e2 = intercept[IllegalArgumentException](idx.matchCountCapped(path, iv, None, 2))
      assert(e2.getMessage.contains(msg), s"path=$path iv=$iv")
    }
  }

  // ---- randomized differential tests ------------------------------------

  private val net = NetworkGen.generate(10, 10, seed = 3L)
  private val cfg = TrajectoryGen.Config(numTrajectories = 400, numDrivers = 12,
                                         numRoutes = 40, days = 30, seed = 17L)
  private val trajs = TrajectoryGen.collectTrajs(net, cfg)

  private def checkAgainstNaive(index: SNTIndex, seed: Long, n: Int): Unit = {
    val rnd = new Random(seed)
    for (_ <- 0 until n) {
      val tr = trajs(rnd.nextInt(trajs.length))
      val lo = rnd.nextInt(tr.length)
      val hi = math.min(tr.length, lo + 1 + rnd.nextInt(6))
      val path = tr.edges.slice(lo, hi).toVector
      val interval: TimeInterval = rnd.nextInt(3) match {
        case 0 => FixedInterval(0, index.tmaxGlobal)
        case 1 =>
          val mid = trajs(rnd.nextInt(trajs.length)).t0
          FixedInterval(mid - 50000, mid + 50000)
        case _ =>
          val anchor = tr.times(lo)
          PeriodicInterval(anchor - 1800, anchor + 1800)
      }
      val user = if (rnd.nextBoolean()) None else Some(tr.user)
      val q = Spq(path, interval, user, None, 0)
      val got = sortedTT(index.getTravelTimes(q))
      val naive = naiveTravelTimes(trajs.toSeq, path, interval, user)
      // Procedure 5 line 12: empty single-segment fixed-interval queries fall
      // back to the speed-limit estimate.
      val want =
        if (naive.isEmpty && path.length == 1 && !interval.isPeriodic)
          sortedTT(Seq(net.estimateTT(path.head)))
        else sortedTT(naive)
      assert(got == want, s"path=$path interval=$interval user=$user")
    }
  }

  test("randomized: CSS-forest index equals naive scan (200 queries)") {
    checkAgainstNaive(SNTIndex.build(net, trajs, CssForest, None), 101, 200)
  }

  test("randomized: B+-forest index equals naive scan (200 queries)") {
    checkAgainstNaive(SNTIndex.build(net, trajs, BtForest, None), 102, 200)
  }

  test("randomized: temporally partitioned index (7-day) equals naive scan") {
    checkAgainstNaive(SNTIndex.build(net, trajs, CssForest, Some(7)), 103, 150)
  }

  test("randomized: temporally partitioned index (1-day) equals naive scan") {
    checkAgainstNaive(SNTIndex.build(net, trajs, CssForest, Some(1)), 104, 100)
  }

  test("partitioned and unpartitioned countPath agree") {
    val full = SNTIndex.build(net, trajs, CssForest, None)
    val part = SNTIndex.build(net, trajs, CssForest, Some(7))
    val rnd = new Random(105)
    for (_ <- 0 until 100) {
      val tr = trajs(rnd.nextInt(trajs.length))
      val lo = rnd.nextInt(tr.length)
      val hi = math.min(tr.length, lo + 1 + rnd.nextInt(5))
      val p = tr.edges.slice(lo, hi).toVector
      assert(full.countPath(p) == part.countPath(p))
    }
  }

  // ---- partition pruning for fixed intervals ------------------------------

  private lazy val fullIdx = SNTIndex.build(net, trajs, CssForest, None)
  private lazy val byDays = Seq(1, 7).map(d => d -> SNTIndex.build(net, trajs, CssForest, Some(d)))
  private def partIdx = byDays.map(_._2)

  test("build bounds each partition's leaf entry times") {
    for ((days, part) <- byDays) {
      // A trajectory's partition is the rank of its start-time bucket.
      val bucket = trajs.map(t => (t.t0 - part.tminGlobal) / (86400L * days))
      val rank = bucket.distinct.sorted.zipWithIndex.toMap
      val byW = trajs.indices.groupBy(i => rank(bucket(i)))
      assert(byW.size == part.partitions.length)
      for ((p, is) <- byW) {
        assert(part.firstEntry(p) == is.map(i => trajs(i).times.min).min, s"w=$p")
        assert(part.lastEntry(p) == is.map(i => trajs(i).times.max).max, s"w=$p")
      }
    }
  }

  /** Fixed intervals on the edges of the partitions' entry-time spans. */
  private def edgeIntervals(part: SNTIndex): Seq[FixedInterval] = {
    val (tmin, tmax) = (part.tminGlobal, part.tmaxGlobal)
    val spans = part.partitions.indices.map(w => (part.firstEntry(w), part.lastEntry(w)))
    Seq(FixedInterval(0, tmin), FixedInterval(tmin - 5000, tmin - 1),
        FixedInterval(tmax, tmax + 5000), FixedInterval(tmax - 1, tmax + 5000)) ++
      Seq(tmin, tmax, spans(1)._1, spans(1)._2).map(t => FixedInterval(t, t)) ++
      spans.flatMap { case (first, last) =>
        Seq(FixedInterval(first, last + 1),           // exactly one partition
            FixedInterval(first, first + 1), FixedInterval(first - 3600, first),
            FixedInterval(last, last + 1), FixedInterval(last + 1, last + 3600),
            FixedInterval(first - 3600, first + 3600), FixedInterval(last - 3600, last + 3600))
      }
  }

  private def samplePaths(seed: Long, n: Int): Seq[(Vector[Int], Int)] = {
    val rnd = new Random(seed)
    Seq.fill(n) {
      val tr = trajs(rnd.nextInt(trajs.length))
      val lo = rnd.nextInt(tr.length)
      val hi = math.min(tr.length, lo + 1 + rnd.nextInt(5))
      (tr.edges.slice(lo, hi).toVector, tr.user)
    }
  }

  test("pruned fixed-interval queries on 1-day and 7-day indexes equal the FULL index") {
    for (part <- partIdx) {
      assert(part.partitions.length > 1)
      val ivs = edgeIntervals(part)
      // Paths entered exactly at a partition's first entry time match [first, first + 1).
      val firstPaths = part.firstEntry.toSeq.flatMap(t => trajs.find(_.t0 == t))
        .map(tr => (tr.edges.take(3).toVector, tr.user))
      for ((path, u) <- samplePaths(106, 60) ++ firstPaths; iv <- ivs; user <- Seq(None, Some(u));
           beta <- Seq(None, Some(1), Some(3))) {
        val clue = s"W=${part.partitions.length} path=$path iv=$iv user=$user beta=$beta"
        val q = Spq(path, iv, user, beta, 0)
        assert(sortedTT(part.getTravelTimes(q)) == sortedTT(fullIdx.getTravelTimes(q)), clue)
        assert(sortedTT(part.getTravelTimes(q.copy(relaxed = true))) ==
               sortedTT(fullIdx.getTravelTimes(q.copy(relaxed = true))), clue)
        for (cap <- Seq(1, 3, Int.MaxValue))
          assert(part.matchCountCapped(path, iv, user, cap) == fullIdx.matchCountCapped(path, iv, user, cap), clue)
      }
    }
  }

  test("fixed intervals skip only the partitions whose entry-time span they miss") {
    for (part <- partIdx; (path, _) <- samplePaths(107, 40) if path.length > 1; iv <- edgeIntervals(part)) {
      val all = part.pathRanges(path)
      val pruned = part.pathRanges(path, iv)
      for (w <- part.partitions.indices) {
        val misses = part.lastEntry(w) < iv.ts || part.firstEntry(w) >= iv.te
        assert(pruned(w) == (if (misses) (0, 0) else all(w)), s"w=$w path=$path iv=$iv")
      }
      // Periodic intervals and single segments search every partition.
      assert(part.pathRanges(path, PeriodicInterval(iv.ts, iv.ts + 900)).sameElements(all))
      assert(part.pathRanges(path.take(1), iv).sameElements(part.pathRanges(path.take(1))))
    }
  }

  test("countPath counts every partition, also those a fixed interval skips") {
    var skipped = 0
    for (part <- partIdx; (path, _) <- samplePaths(108, 60)) {
      val want = naiveCountPath(trajs.toSeq, path)
      assert(part.countPath(path) == want && fullIdx.countPath(path) == want, s"path=$path")
      val oneSpan = FixedInterval(part.firstEntry(0), part.lastEntry(0) + 1)
      val inSpan = part.pathRanges(path, oneSpan).map { case (st, ed) => ed - st }.sum
      if (inSpan < want) skipped += 1
    }
    assert(skipped > 0)
  }

  // ---- the widen ladder in one first-edge scan ---------------------------

  test("scanLadder gives each rung the count and map of buildMap run rung by rung (TestScale)") {
    val s = repro.eval.Experiments.TestScale
    val tNet = NetworkGen.generate(s.gridW, s.gridH, s.seed)
    val tTrajs = TrajectoryGen.collectTrajs(
      tNet, TrajectoryGen.Config(s.numTraj, s.numDrivers, s.numRoutes, s.days, s.seed))
    val indexes = Seq(None, Some(1), Some(7)).map(d => SNTIndex.build(tNet, tTrajs, CssForest, d))
    val splitter = new Splitter(Vector(15L, 30L, 45L, 60L, 90L, 120L).map(_ * 60L), SigmaR, indexes.head)
    val rnd = new Random(109)
    val paths = Seq.fill(40) {
      val tr = tTrajs(rnd.nextInt(tTrajs.length))
      val lo = rnd.nextInt(tr.length)
      (tr.edges.slice(lo, math.min(tr.length, lo + 1 + rnd.nextInt(3))).toVector, tr.times(lo), tr.user)
    }
    val accepted = collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    for {
      index <- indexes
      (path, t, u) <- paths
      ranges = index.pathRanges(path)
      base <- Seq(PeriodicInterval(t - 450, t + 450), // around the trip's entry
                  PeriodicInterval(-450, 450),         // wraps midnight
                  PeriodicInterval(t - 600, t + 600))  // 20 min, off the ladder sizes
      (sumMin, sumRange) <- Seq((0.0, 0.0), (1234.4, 567.6), (300.0, 80000.0)) // the last reaches 1 day
      all = splitter.ladder(base).map(_.shiftAndEnlarge(sumMin, sumRange)).toArray
      rungs <- Seq(all, all.drop(2), all.indices.collect { case k if k % 2 == 1 => all(k) }.toArray)
      user <- Seq(None, Some(u))
      beta <- Seq(None, Some(1), Some(3), Some(20))
    } {
      val cap = beta.getOrElse(Int.MaxValue)
      val clue = s"W=${index.partitions.length} path=$path rungs=${rungs.toSeq} user=$user beta=$beta"
      val work = new ScanWork
      val scan = index.scanLadder(path.head, ranges, rungs, user, cap, work)
      for (k <- rungs.indices) {
        val alone = index.buildMap(path.head, ranges, rungs(k), user, cap)
        assert(math.min(scan.held(k), cap) == alone.size, s"$clue k=$k")
        assert(scan.matches(k, cap).pos.toSeq == alone.pos.toSeq, s"$clue k=$k")
      }
      // The ladder examines exactly the records the scan of its first rung examines.
      val first = new ScanWork
      index.buildMap(path.head, ranges, rungs(0), user, cap, first)
      assert(work.firstEdgeRecords == first.firstEdgeRecords, clue)
      val need = beta.getOrElse(1)
      val rung = rungs.indices.find(scan.held(_) >= need)
      accepted(rung match {
        case None => "none"
        case Some(0) => "first"
        case Some(k) if k == rungs.length - 1 => "last"
        case _ => "middle"
      }) += 1
      if (rungs.last.sizeSec >= TimeInterval.DaySec) accepted("day") += 1
    }
    info(accepted.toSeq.sorted.mkString(", "))
    for (kind <- Seq("none", "first", "middle", "last", "day")) assert(accepted(kind) > 50, kind)
  }

  test("scanLadder rejects rungs that are not nested") {
    val e = intercept[IllegalArgumentException](
      idx.scanLadder(A, idx.pathRanges(Vector(A)), Array(PeriodicInterval(0, 900), PeriodicInterval(60, 1800)),
                     None, 1))
    assert(e.getMessage.contains("does not contain"))
  }

  // ---- Procedure 3 against a brute-force filter of the leaf columns --------

  test("buildMap keeps the first cap records passing every test and examines the records up to them") {
    val day = TimeInterval.DaySec
    val kinds = collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    for ((days, index) <- Seq(None -> fullIdx, Some(7) -> byDays.toMap.apply(7)); (path, u) <- samplePaths(110, 30)) {
      val recs = index.records(path.head)
      val (tmin, tmax) = (index.tminGlobal, index.tmaxGlobal)
      val t = recs.t(recs.size / 2)
      val windows: Seq[TimeInterval] = Seq(
        FixedInterval(0, tmax), FixedInterval(t, t), FixedInterval(tmax, tmax + 5000), FixedInterval(0, tmin),
        FixedInterval(t - 50000, t + 50000), FixedInterval(t, t + 1), FixedInterval(tmin, t),
        PeriodicInterval(t - 900, t + 900), PeriodicInterval(-900, 900), PeriodicInterval(80000, 90000),
        PeriodicInterval(0, day), PeriodicInterval(t, t))
      for (iv <- windows; user <- Seq(None, Some(u)); cap <- Seq(1, 3, 20, Int.MaxValue)) {
        val clue = s"days=$days path=$path iv=$iv user=$user cap=$cap"
        val ranges = index.pathRanges(path, iv)
        val kept = recs.t.indices.filter { i =>
          val (st, ed) = ranges(recs.w(i))
          iv.contains(recs.t(i)) && recs.isa(i) >= st && recs.isa(i) < ed && user.forall(_ == index.users(recs.d(i)))
        }.take(cap)
        // A fixed window is scanned from its first position, a periodic one
        // from position 0; the scan ends after the cap-th kept record, or
        // else at the window's end.
        val (from, end) = iv match {
          case FixedInterval(ts, te) => (recs.t.count(_ < ts), recs.t.count(_ < te))
          case _                     => (0, recs.size)
        }
        val last = if (kept.length == cap) kept.last + 1 else end
        val work = new ScanWork
        val m = index.buildMap(path.head, ranges, iv, user, cap, work)
        assert(m.pos.toSeq == kept, clue)
        assert(work.firstEdgeRecords == last - from, clue)
        kinds(if (kept.isEmpty) "empty" else if (kept.length == cap) "capped" else "window end") += 1
      }
    }
    info(kinds.toSeq.sorted.mkString(", "))
    for (kind <- Seq("empty", "capped", "window end")) assert(kinds(kind) > 100, kind)
  }

  // ---- Procedure 4 against a brute-force scan of the last edge's leaves ----

  private lazy val testScaleTrajs = {
    val s = repro.eval.Experiments.TestScale
    val tNet = NetworkGen.generate(s.gridW, s.gridH, s.seed)
    (tNet, TrajectoryGen.collectTrajs(
      tNet, TrajectoryGen.Config(s.numTraj, s.numDrivers, s.numRoutes, s.days, s.seed)))
  }

  /** Procedure 4 by brute force: the last edge's leaves in position order;
    * each whose (d, seq + 1 − l) is the match of `m` at first-edge position p
    * yields (p, a minus a − TT of the leaf at p).
    */
  private def lastEdgeScan(index: SNTIndex, edge: Int, l: Int, m: SNTIndex.Matches): Seq[(Int, Double)] = {
    val first = m.recs
    val byKey = m.pos.map(p => (first.d(p), first.seq(p).toInt) -> p).toMap
    val recs = index.records(edge)
    if (recs == null) Seq.empty
    else for {
      i <- 0 until recs.size
      s = recs.seq(i) + 1 - l if s >= 0
      p <- byKey.get((recs.d(i), s))
    } yield (p, recs.a(i) - (first.a(p) - first.tt(p)))
  }

  test("probeMap and answerLadder return the last-edge scan's travel times, in its order") {
    val (tNet, tTrajs) = testScaleTrajs
    // A trajectory that traverses ⟨A, B, E⟩ twice: its last edge E occurs twice.
    val loop = Traj(9, u1, Array(A, B, E, A, B, E), Array(20L, 23L, 27L, 31L, 35L, 40L),
                    Array(3.0, 4.0, 4.5, 4.0, 5.0, 4.0))
    // Two trajectories over ⟨A, B, E⟩ where the later one on A is the earlier
    // one on B and E, so the last edge's order differs from the first edge's.
    val overtake = Array(Traj(10, u1, Array(A, B, E), Array(50L, 60L, 63L), Array(10.0, 3.0, 4.0)),
                         Traj(11, u1, Array(A, B, E), Array(52L, 54L, 57L), Array(2.0, 3.0, 4.0)))
    val paperPaths = Seq(Vector(E), Vector(B, E), Vector(A, B, E), Vector(E, A, B, E), Vector(A, B))
    val cases = Seq(None, Some(7)).flatMap { days =>
      val index = SNTIndex.build(tNet, tTrajs, CssForest, days)
      val rnd = new Random(111)
      val paths = Seq.fill(40) {
        val tr = tTrajs(rnd.nextInt(tTrajs.length))
        val l = 1 + rnd.nextInt(math.min(4, tr.length))
        val lo = rnd.nextInt(tr.length - l + 1)
        (tr.edges.slice(lo, lo + l).toVector, tr.times(lo), tr.user)
      }
      paths.map(p => (s"days=$days", index, p))
    } ++ {
      val index = SNTIndex.build(paperNetwork, (paperTrajs :+ loop) ++ overtake, CssForest, None)
      paperPaths.map(p => ("paper+loop", index, (p, 20L, u1)))
    }
    val splitter = new Splitter(Vector(15L, 30L, 45L, 60L, 90L, 120L).map(_ * 60L), SigmaR, cases.head._2)
    val kinds = collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    for {
      (name, index, (path, t, u)) <- cases
      l = path.length
      ladder <- Seq(Array[TimeInterval](FixedInterval(0, index.tmaxGlobal)),
                    Array[TimeInterval](FixedInterval(t - 50000, t + 50000)),
                    splitter.ladder(PeriodicInterval(t - 450, t + 450)).toArray[TimeInterval],
                    splitter.ladder(PeriodicInterval(-450, 450)).toArray[TimeInterval])
      user <- Seq(None, Some(u))
      beta <- Seq(Some(1), Some(3), Some(20), None)
      relaxed <- Seq(false, true)
    } {
      val clue = s"$name path=$path ladder=${ladder.toSeq} user=$user beta=$beta relaxed=$relaxed"
      val cap = beta.getOrElse(Int.MaxValue)
      val ranges = index.pathRanges(path, ladder.last)
      for (iv <- ladder) {
        val m = index.buildMap(path.head, ranges, iv, user, cap)
        val want = lastEdgeScan(index, path.last, l, m).map(_._2)
        assert(index.probeMap(path.last, l, m).toSeq == want, s"$clue iv=$iv")
        assert(want.length == m.size, s"$clue iv=$iv")
      }
      val q = Spq(path, ladder.head, user, beta, 0, relaxed)
      val (hit, x) = index.answerLadder(q, ladder)
      if (hit >= 0) {
        val m = index.scanLadder(path.head, ranges, ladder, user, cap).matches(hit, cap)
        if (m.size == 0) assert(l == 1 && x.toSeq == Seq(index.net.estimateTT(path.head)), clue)
        else {
          val scan = lastEdgeScan(index, path.last, l, m)
          assert(x.toSeq == scan.map(_._2), clue)
          kinds(if (m.size == 1) "one" else if (x.toSeq == x.sorted.toSeq) "sorted" else "unsorted") += 1
          if (scan.map(_._1) != m.pos.toSeq) kinds("overtaken") += 1
          if (name == "paper+loop" && m.pos.exists(p => m.recs.d(p) == paperTrajs.length)) kinds("loop") += 1
          if (ladder.head == FixedInterval(0, index.tmaxGlobal) && relaxed && user.isEmpty && beta.isEmpty)
            assert(x.length == index.countPath(path), clue) // M is every occurrence
        }
      }
    }
    info(kinds.toSeq.sorted.mkString(", "))
    for (kind <- Seq("one", "sorted", "unsorted", "loop", "overtaken")) assert(kinds(kind) > 10, kind)
  }

  test("Procedure 4 reads one last-edge leaf per match") {
    val (tNet, tTrajs) = testScaleTrajs
    val index = SNTIndex.build(tNet, tTrajs, CssForest, None)
    val rnd = new Random(112)
    var reads = 0L
    for (_ <- 0 until 100) {
      val tr = tTrajs(rnd.nextInt(tTrajs.length))
      val l = 1 + rnd.nextInt(math.min(4, tr.length))
      val lo = rnd.nextInt(tr.length - l + 1)
      val path = tr.edges.slice(lo, lo + l).toVector
      val iv = PeriodicInterval(tr.times(lo) - 1800, tr.times(lo) + 1800)
      val m = index.buildMap(path.head, index.pathRanges(path), iv, None, 20)
      val work = new ScanWork
      assert(index.probeMap(path.last, l, m, work).length == m.size)
      assert(work.lastEdgeRecords == m.size, s"path=$path")
      val viaLadder = new ScanWork
      val x = index.getTravelTimes(Spq(path, iv, None, Some(20), 0, relaxed = true), viaLadder)
      assert(viaLadder.lastEdgeRecords == x.length, s"path=$path")
      reads += m.size
    }
    assert(reads > 100)
  }

  test("build rejects an entry time outside [0, 2^31)") {
    for (time <- Seq(-1L, 1L << 31, Long.MinValue)) {
      val bad = Traj(9, u1, Array(A, B), Array(0L, time), Array(3.0, 4.0))
      val e = intercept[IllegalArgumentException](SNTIndex.build(paperNetwork, paperTrajs :+ bad))
      assert(e.getMessage.contains(s"trajectory 9 has entry time $time at position 1, outside [0, 2^31)"))
    }
    // The last second of the domain is accepted.
    val atEnd = Traj(9, u1, Array(A, B), Array(Int.MaxValue - 5L, Int.MaxValue.toLong), Array(3.0, 4.0))
    val index = SNTIndex.build(paperNetwork, paperTrajs :+ atEnd, CssForest, Some(7))
    assert(index.getTravelTimes(Spq(Vector(A, B), FixedInterval(Int.MaxValue - 5L, 1L << 31), None, None, 0))
             .toSeq == Seq(7.0))
  }

  test("build rejects a travel time that is not finite or not positive") {
    for (tt <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -5.0, 0.0)) {
      val bad = Traj(9, u1, Array(A, B), Array(0L, 3L), Array(3.0, tt))
      val e = intercept[IllegalArgumentException](SNTIndex.build(paperNetwork, paperTrajs :+ bad))
      assert(e.getMessage.contains(s"trajectory 9 has travel time $tt at position 1; it must be finite and > 0"))
    }
  }

  test("answerLadder rejects an empty ladder") {
    val q = Spq(Vector(A, B), PeriodicInterval(0, 900), None, Some(2), 0)
    val e = intercept[IllegalArgumentException](idx.answerLadder(q, Array.empty[TimeInterval]))
    assert(e.getMessage.contains("answerLadder needs at least one rung"))
  }

  test("Unix entry times: FULL and 7-day indexes equal the naive scan (TestScale)") {
    val (tNet, tTrajs) = testScaleTrajs
    val shift = 1546300800L + 12345L // 2019-01-01 00:00 UTC plus a part of a day
    val unix = tTrajs.map(tr => tr.copy(times = tr.times.map(_ + shift)))
    val rnd = new Random(113)
    val queries = Seq.fill(40) {
      val tr = unix(rnd.nextInt(unix.length))
      val l = 1 + rnd.nextInt(math.min(4, tr.length))
      val lo = rnd.nextInt(tr.length - l + 1)
      (tr.edges.slice(lo, lo + l).toVector, tr.times(lo), tr.user)
    }
    val day = TimeInterval.DaySec
    var nonEmpty = 0
    for (days <- Seq(None, Some(7))) {
      val index = SNTIndex.build(tNet, unix, CssForest, days)
      val (tmin, tmax) = (index.tminGlobal, index.tmaxGlobal)
      for ((path, t, u) <- queries; user <- Seq(None, Some(u))) {
        val tod = Math.floorMod(t, day)
        val windows: Seq[TimeInterval] = Seq(
          FixedInterval(0, tmax), FixedInterval(tmin - 5000, tmin), FixedInterval(tmax, tmax + 5000),
          FixedInterval(t - 50000, t + 50000), FixedInterval(t, t + 1),
          PeriodicInterval(tod - 900, tod + 900), PeriodicInterval(-900, 900), PeriodicInterval(day - 600, day + 600),
          PeriodicInterval(t - 1800, t + 1800))
        for (iv <- windows) {
          val naive = naiveTravelTimes(unix.toSeq, path, iv, user)
          val want =
            if (naive.isEmpty && path.length == 1 && !iv.isPeriodic) Seq(tNet.estimateTT(path.head)) else naive
          val got = index.getTravelTimes(Spq(path, iv, user, None, 0))
          assert(sortedTT(got) == sortedTT(want), s"days=$days path=$path iv=$iv user=$user")
          if (naive.nonEmpty) nonEmpty += 1
        }
      }
    }
    assert(nonEmpty > 200)
  }

  test("memC grows linearly with the number of partitions") {
    val full = SNTIndex.build(net, trajs, CssForest, None)
    val part = SNTIndex.build(net, trajs, CssForest, Some(7))
    assert(part.partitions.length > 1)
    assert(part.memC == full.memC * part.partitions.length)
  }

  test("users container maps each build position to its driver") {
    assert(fullIdx.users.toSeq == trajs.map(_.user).toSeq)
    for (e <- fullIdx.records.indices; r = fullIdx.records(e) if r != null; i <- 0 until r.size) {
      val tr = trajs(r.d(i))
      assert(tr.edges(r.seq(i)) == e && tr.times(r.seq(i)) == r.t(i), s"edge=$e leaf=$i")
    }
  }

  test("trajectory ids that repeat or differ by 2^50 do not merge (d, seq) keys") {
    val paths = paperTrajs.toSeq.flatMap { tr =>
      for (i <- 0 until tr.length; j <- i + 1 to tr.length) yield tr.edges.slice(i, j).toVector
    }.distinct
    val intervals = Seq(FixedInterval(0, 15), FixedInterval(5, 10), FixedInterval(0, 100), PeriodicInterval(0, 8))
    // tr0/tr3 and tr0/tr2 share an id; id 2^50 shifted past the seq bits wraps to tr0's key.
    for (ids <- Seq(Seq(0L, 1L, 2L, 0L), Seq(0L, 1L, 0L, 3L), Seq(0L, 1L, 2L, 1L << 50))) {
      val ts = paperTrajs.zip(ids).map { case (tr, id) => tr.copy(id = id) }
      val index = SNTIndex.build(paperNetwork, ts)
      for (path <- paths; iv <- intervals; user <- Seq(None, Some(u1), Some(u2))) {
        val naive = naiveTravelTimes(ts.toSeq, path, iv, user)
        val want =
          if (naive.isEmpty && path.length == 1 && !iv.isPeriodic) Seq(paperNetwork.estimateTT(path.head))
          else naive
        assert(sortedTT(index.getTravelTimes(Spq(path, iv, user, None, 0))) == sortedTT(want),
               s"ids=$ids path=$path iv=$iv user=$user")
      }
    }
  }

  test("tmin/tmax bracket all timestamps") {
    val i = SNTIndex.build(net, trajs)
    assert(i.tminGlobal == trajs.map(_.t0).min)
    assert(trajs.forall(t => t.times.last < i.tmaxGlobal))
  }

  test("build rejects a trajectory too long for the (d, seq) key") {
    // 2^14 segments: seq would spill into the trajectory-id bits of the key.
    val n = 1 << 14
    val long = Traj(9, u1, Array.fill(n)(A), Array.tabulate(n)(_.toLong * 10), Array.fill(n)(5.0))
    val e = intercept[IllegalArgumentException](SNTIndex.build(paperNetwork, paperTrajs :+ long))
    assert(e.getMessage.contains(s"trajectory 9 has $n segments; at most ${n - 1} are supported"))
  }

  test("build rejects an empty trajectory") {
    val empty = Traj(9, u1, Array.empty, Array.empty, Array.empty)
    val e = intercept[IllegalArgumentException](SNTIndex.build(paperNetwork, paperTrajs :+ empty))
    assert(e.getMessage.contains("trajectory 9 has no segments"))
  }

  test("build rejects edges, times and travel times of different lengths") {
    for ((times, tts) <- Seq((Array(0L), Array(3.0, 4.0)), (Array(0L, 3L), Array(3.0)))) {
      val bad = Traj(9, u1, Array(A, B), times, tts)
      val e = intercept[IllegalArgumentException](SNTIndex.build(paperNetwork, paperTrajs :+ bad))
      assert(e.getMessage.contains(
        s"trajectory 9 has 2 edges, ${times.length} entry times and ${tts.length} travel times"))
    }
  }

  test("build rejects an edge id outside [1, numEdges]") {
    // Edge 0 would read as the FM `$` separator; ids above numEdges have no bucket.
    for (edge <- Seq(0, -1, paperNetwork.numEdges + 1)) {
      val bad = Traj(9, u1, Array(A, edge), Array(0L, 3L), Array(3.0, 4.0))
      val e = intercept[IllegalArgumentException](SNTIndex.build(paperNetwork, paperTrajs :+ bad))
      assert(e.getMessage.contains(
        s"trajectory 9 has edge id $edge at position 1, outside [1, ${paperNetwork.numEdges}]"))
    }
  }
}
