package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{Experiments, Metrics, Workload}
import repro.hist.HistogramStore
import repro.network.NetworkGen
import repro.testutil.{Fixtures, InMemoryStore}
import repro.traj.TrajectoryGen

import scala.util.Random

/** §4.4 cardinality estimator: mode-by-mode formula checks. */
class CardinalityEstimatorSpec extends AnyFunSuite {
  import Fixtures._

  private val idx = SNTIndex.build(paperNetwork, paperTrajs) // CSS forest
  private val btIdx = SNTIndex.build(paperNetwork, paperTrajs, BtForest)

  // Hand-built time-of-day histogram store for edge A: all 4 entries fall in
  // bucket 0 of a 600 s bucketing (t = 0, 2, 4, 6).
  private val store = new HistogramStore(600, Map((A, 0) -> {
    val arr = new Array[Int](144); arr(0) = 4; arr
  }))

  test("ISA mode returns the raw path count c_P") {
    val q = Spq(Vector(A, B), PeriodicInterval(0, 900), None, Some(5), 0)
    assert(new CardinalityEstimator(idx, store, IsaOnly).estimate(q) == 3.0)
  }

  test("ISA mode ignores every predicate") {
    val q = Spq(Vector(A, B), PeriodicInterval(0, 900), Some(u1), Some(5), 0)
    assert(new CardinalityEstimator(idx, store, IsaOnly).estimate(q) == 3.0)
  }

  test("Fast modes use the uniform time-of-day selectivity (Eq. 1)") {
    val q = Spq(Vector(A, B), PeriodicInterval(0, 8640), None, Some(5), 0) // 10% of a day
    val e = new CardinalityEstimator(idx, store, CssFast).estimate(q)
    assert(math.abs(e - 3.0 * 0.1) < 1e-9)
  }

  test("Acc modes use the histogram-store selectivity (Eq. 2)") {
    // Window [0, 600) covers the only non-empty bucket of A → selectivity 1.
    val q = Spq(Vector(A, B), PeriodicInterval(0, 600), None, Some(5), 0)
    val e = new CardinalityEstimator(idx, store, CssAcc).estimate(q)
    assert(math.abs(e - 3.0) < 1e-9)
    // Window [43200, 43800) covers no entries → estimate 0.
    val q2 = Spq(Vector(A, B), PeriodicInterval(43200, 43800), None, Some(5), 0)
    assert(new CardinalityEstimator(idx, store, CssAcc).estimate(q2) == 0.0)
  }

  test("Acc modes read a window of a day or more as every time of day, as Fast modes do") {
    // Shift-and-enlarge can grow a window past 24 h. Reduced mod 1 day, this
    // one would read as [43200, 44400), which holds no entry of A.
    val q = Spq(Vector(A, B), PeriodicInterval(43200, 43200 + 86400 + 1200), None, Some(5), 0)
    for ((acc, fast) <- Seq(CssAcc -> CssFast, BtAcc -> BtFast)) {
      val e = new CardinalityEstimator(idx, store, acc).estimate(q)
      assert(e == new CardinalityEstimator(idx, store, fast).estimate(q), acc.name)
      assert(e == 3.0, acc.name)
    }
  }

  test("Eq. 2 gives an empty window no mass and a window of a day or more the edge's total") {
    for (ts <- Seq(0L, 600L, 43200L)) {
      assert(store.massInTod(A, ts, ts) == 0.0, s"ts=$ts")
      assert(store.massInTod(A, ts, ts + 86400 + 1200) == 4.0, s"ts=$ts")
    }
    val q = Spq(Vector(A, B), PeriodicInterval(0, 0), None, Some(5), 0)
    for (mode <- Seq(CssAcc, BtAcc, CssFast))
      assert(new CardinalityEstimator(idx, store, mode).estimate(q) == 0.0, mode.name)
  }

  test("user predicate multiplies the Selinger 1/10 factor") {
    val q = Spq(Vector(A, B), PeriodicInterval(0, 8640), Some(u1), Some(5), 0)
    val e = new CardinalityEstimator(idx, store, CssFast).estimate(q)
    assert(math.abs(e - 3.0 * 0.1 * 0.1) < 1e-9)
  }

  test("CSS modes count fixed time frames exactly") {
    // Edge A entries at t = 0, 2, 4, 6; frame [1, 5) holds exactly 2 of 4.
    val q = Spq(Vector(A), FixedInterval(1, 5), None, Some(5), 0)
    val e = new CardinalityEstimator(idx, store, CssFast).estimate(q)
    assert(math.abs(e - 4.0 * 0.5) < 1e-9)
  }

  test("BT modes approximate fixed time frames with Eq. 3") {
    // span = max − min = 6; frame [1, 5) → 4/6 of the span.
    val q = Spq(Vector(A), FixedInterval(1, 5), None, Some(5), 0)
    val e = new CardinalityEstimator(btIdx, store, BtFast).estimate(q)
    assert(math.abs(e - 4.0 * (4.0 / 6.0)) < 1e-9)
  }

  test("Eq. 3 clamps to [0, 1]") {
    val q = Spq(Vector(A), FixedInterval(-100, 100), None, Some(5), 0)
    val e = new CardinalityEstimator(btIdx, store, BtFast).estimate(q)
    assert(math.abs(e - 4.0) < 1e-9)
  }

  test("unknown edge data yields estimate 0 for fixed frames") {
    val q = Spq(Vector(F, A), FixedInterval(0, 5), None, Some(5), 0) // path never traversed
    assert(new CardinalityEstimator(idx, store, CssFast).estimate(q) == 0.0)
  }

  test("β̂ never falls along a shift-and-enlarged ladder, and firstRung is the first rung reaching β (TestScale)") {
    val s = Experiments.TestScale
    val net = NetworkGen.generate(s.gridW, s.gridH, s.seed)
    val trajs = TrajectoryGen.collectTrajs(
      net, TrajectoryGen.Config(s.numTraj, s.numDrivers, s.numRoutes, s.days, s.seed))
    val A6 = Vector(15L, 30L, 45L, 60L, 90L, 120L).map(_ * 60L)
    val alphaMin = A6.head
    val Day = TimeInterval.DaySec
    val sample = Workload.sampleQueries(trajs, s.numQueries, s.seed + 5)
    val stores = Seq(60, 600).map(InMemoryStore(trajs.toSeq, _))
    val rnd = new Random(12)
    var ladders = 0
    var wrapping = 0
    var pastDay = 0
    var inside = 0
    for {
      (tree, pd) <- Seq((CssForest, None), (CssForest, Some(7)), (BtForest, None), (BtForest, Some(7)))
      index = SNTIndex.build(net, trajs, tree, pd)
      splitter = new Splitter(A6, SigmaR, index)
      store <- stores
      mode <- Seq(IsaOnly, BtFast, BtAcc, CssFast, CssAcc)
      est = new CardinalityEstimator(index, store, mode)
      tr <- sample.toSeq
      qt <- Seq(Workload.Temporal, Workload.UserQ, Workload.SpqOnly)
      sq <- ZonePartitioner(Workload.baseSpq(tr, qt, alphaMin, 1), net)
      // The query's own window, one centred on midnight and one ending just
      // before it; each unshifted and with random S and R of up to 25 h.
      iv <- sq.interval match {
        case p: PeriodicInterval =>
          Seq(p, PeriodicInterval(-alphaMin / 2, alphaMin / 2), PeriodicInterval(Day - alphaMin - 1, Day - 1))
        case f => Seq(f)
      }
      (sum, range) <- Seq((0.0, 0.0), (rnd.nextDouble() * 90000, rnd.nextDouble() * 90000),
                          (rnd.nextDouble() * 90000, rnd.nextDouble() * 90000))
    } {
      val rungs = splitter.ladder(iv).map {
        case p: PeriodicInterval => p.shiftAndEnlarge(sum, range)
        case r => r
      }.toArray
      val clue = s"${mode.name} W=${index.partitions.length} ${store.bucketSec} s ${sq.path} ${rungs.toSeq}"
      val b = rungs.map(r => est.estimate(sq.copy(interval = r)))
      for (k <- 1 until b.length) assert(b(k) >= b(k - 1), s"rung $k: $clue")
      for (beta <- Seq(1, 3, 20)) {
        val first = est.firstRung(sq, rungs, beta)
        assert(b.take(first).forall(_ < beta) && b.drop(first).forall(_ >= beta), s"β=$beta first=$first: $clue")
        if (first > 0 && first < rungs.length) inside += 1
      }
      ladders += 1
      if (rungs.exists(r => r.isPeriodic && java.lang.Math.floorMod(r.ts, Day) + r.sizeSec > Day)) wrapping += 1
      if (rungs.exists(r => r.isPeriodic && r.sizeSec >= Day)) pastDay += 1
    }
    info(s"$ladders ladders: $wrapping wrap midnight, $pastDay reach a day, $inside firstRung strictly inside")
    assert(wrapping > 1000 && pastDay > 1000 && inside > 1000)
  }

  test("q-error floors both sides at 1 (Stefanoni et al.)") {
    assert(Metrics.qError(0.0, 0L) == 1.0)
    assert(Metrics.qError(10.0, 1L) == 10.0)
    assert(Metrics.qError(1.0, 10L) == 10.0)
    assert(Metrics.qError(0.5, 0L) == 1.0)
    assert(math.abs(Metrics.qError(20.0, 5L) - 4.0) < 1e-12)
  }
}
