package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{Experiments, Workload}
import repro.hist.{Histogram, HistogramStore}
import repro.network.NetworkGen
import repro.testutil.{Fixtures, InMemoryStore, ReferenceTripQuery}
import repro.traj.TrajectoryGen

import scala.util.Random

/** Procedure 6 (tripQuery) end-to-end behaviour. */
class TripQuerySpec extends AnyFunSuite {
  import Fixtures._

  private val A6: Vector[Long] = Vector(15L, 30L, 45L, 60L, 90L, 120L).map(_ * 60L)
  private val idx = SNTIndex.build(paperNetwork, paperTrajs)
  // The ISA and Fast estimator modes read no time-of-day histogram.
  private val NoStore = new HistogramStore(600, Map.empty)
  private def proc(m: SplitMethod = SigmaR, est: Option[CardinalityEstimator] = None) =
    new TripQueryProcessor(idx, new Splitter(A6, m, idx), 1.0, est)

  test("paper §2.3: unsplit query ⟨A,B,E⟩ with β=2 gives H = {[10,11):1, [11,12):1}") {
    val q = Spq(Vector(A, B, E), FixedInterval(0, 15), Some(u1), Some(2), 0)
    val res = proc().run(q, NonePartitioner)
    assert(res.sub.length == 1)
    assert(res.histogram.counts == Map(10 -> 1.0, 11 -> 1.0))
  }

  test("paper §2.3: split into ⟨A,B⟩ and ⟨E⟩ convolves to {[10,11):4, [11,12):4, [12,13):1}") {
    val q = Spq(Vector(A, B, E), FixedInterval(0, 15), None, Some(3), 0)
    // π2 partitions ⟨A,B,E⟩ into ⟨A,B⟩ and ⟨E⟩.
    val res = proc().run(q, RegularPartitioner(2))
    assert(res.sub.map(_.x.length) == Vector(3, 3))
    assert(res.histogram.counts == Map(10 -> 4.0, 11 -> 4.0, 12 -> 1.0))
  }

  test("failing sub-query is relaxed until it succeeds") {
    // β = 3 cannot be met by ⟨A,B,E⟩ (only 2 traversals) inside [0,15);
    // with π_N the whole path is eventually split.
    val q = Spq(Vector(A, B, E), FixedInterval(0, 15), None, Some(3), 0)
    val res = proc().run(q, NonePartitioner)
    assert(res.sub.nonEmpty)
    // Results tile the path.
    assert(res.sub.map(r => (r.startIdx, r.endIdx)).sliding(2).forall {
      case Seq((_, e1), (s2, _)) => e1 == s2
      case _ => true
    })
    assert(res.sub.head.startIdx == 0 && res.sub.last.endIdx == 3)
  }

  test("meanEstimate is the sum of sub-query means") {
    val q = Spq(Vector(A, B, E), FixedInterval(0, 15), None, Some(3), 0)
    val res = proc().run(q, RegularPartitioner(2))
    val m1 = res.sub(0).x.sum / res.sub(0).x.length
    val m2 = res.sub(1).x.sum / res.sub(1).x.length
    assert(math.abs(res.meanEstimate - (m1 + m2)) < 1e-9)
  }

  test("avgSubPathLength averages the final sub-path lengths") {
    val q = Spq(Vector(A, B, E), FixedInterval(0, 15), None, Some(3), 0)
    val res = proc().run(q, RegularPartitioner(2))
    assert(math.abs(res.avgSubPathLength - 1.5) < 1e-9)
  }

  test("histograms use the processor's bucket width") {
    val q = Spq(Vector(E), FixedInterval(0, 100), None, None, 0)
    val p = new TripQueryProcessor(idx, new Splitter(A6, SigmaR, idx), 10.0, None)
    val res = p.run(q, NonePartitioner)
    assert(res.histogram.h == 10.0)
  }

  test("a processor rejects a bucket width that is not finite and > 0") {
    for (h <- Seq(0.0, -10.0, Double.NaN, Double.PositiveInfinity)) {
      val e = intercept[IllegalArgumentException](new TripQueryProcessor(idx, new Splitter(A6, SigmaR, idx), h, None))
      assert(e.getMessage.contains(s"bucket width h = $h"), s"h=$h")
    }
  }

  test("estimator-gated processing skips index calls when β̂ < β") {
    // ISA-only estimate for ⟨A,B,E⟩ is 2 < β=3 → skipped without dispatch.
    val est = new CardinalityEstimator(idx, NoStore, IsaOnly)
    val q = Spq(Vector(A, B, E), FixedInterval(0, 15), None, Some(3), 0)
    val res = proc(SigmaR, Some(est)).run(q, NonePartitioner)
    assert(res.estimatorSkips >= 1)
    assert(res.sub.nonEmpty)
  }

  test("periodic trip query on generated data terminates and tiles the path") {
    val net = NetworkGen.generate(10, 10, seed = 3L)
    val cfg = TrajectoryGen.Config(400, 12, 40, 30, seed = 17L)
    val trajs = TrajectoryGen.collectTrajs(net, cfg)
    val index = SNTIndex.build(net, trajs)
    val p = new TripQueryProcessor(index, new Splitter(A6, SigmaR, index), 10.0, None)
    val rnd = new Random(7)
    for (_ <- 0 until 30) {
      val tr = trajs(rnd.nextInt(trajs.length))
      val q = Spq(tr.edges.toVector, PeriodicInterval(tr.t0 - 450, tr.t0 + 450),
                  None, Some(10), 0)
      for (pi <- Seq[Partitioner](ZonePartitioner, CategoryPartitioner, NonePartitioner,
                                  RegularPartitioner(2))) {
        val res = p.run(q, pi)
        assert(res.sub.head.startIdx == 0)
        assert(res.sub.last.endIdx == tr.length)
        assert(res.sub.map(_.pathLen).sum == tr.length)
        assert(res.sub.forall(_.x.nonEmpty))
        assert(!res.histogram.isEmpty)
      }
    }
  }

  test("σL trip queries also terminate and tile") {
    val net = NetworkGen.generate(10, 10, seed = 3L)
    val cfg = TrajectoryGen.Config(400, 12, 40, 30, seed = 17L)
    val trajs = TrajectoryGen.collectTrajs(net, cfg)
    val index = SNTIndex.build(net, trajs)
    val p = new TripQueryProcessor(index, new Splitter(A6, SigmaL, index), 10.0, None)
    val rnd = new Random(8)
    for (_ <- 0 until 10) {
      val tr = trajs(rnd.nextInt(trajs.length))
      val q = Spq(tr.edges.toVector, PeriodicInterval(tr.t0 - 450, tr.t0 + 450),
                  None, Some(10), 0)
      val res = p.run(q, ZonePartitioner)
      assert(res.sub.map(_.pathLen).sum == tr.length)
    }
  }

  test("user-filtered trip query keeps predicate where data suffices") {
    val net = NetworkGen.generate(10, 10, seed = 3L)
    val cfg = TrajectoryGen.Config(600, 10, 30, 60, seed = 19L)
    val trajs = TrajectoryGen.collectTrajs(net, cfg)
    val index = SNTIndex.build(net, trajs)
    val p = new TripQueryProcessor(index, new Splitter(A6, SigmaR, index), 10.0, None)
    val tr = trajs.maxBy(_.length)
    val q = Spq(tr.edges.toVector, PeriodicInterval(tr.t0 - 450, tr.t0 + 450),
                Some(tr.user), Some(2), 0)
    val res = p.run(q, MdmPartitioner)
    assert(res.sub.map(_.pathLen).sum == tr.length)
  }

  test("convolution of the final histogram matches manual convolution of sub-histograms") {
    val q = Spq(Vector(A, B, E), FixedInterval(0, 15), None, Some(3), 0)
    val res = proc().run(q, RegularPartitioner(2))
    val manual = Histogram.convolveAll(res.sub.map(r => Histogram.create(r.x, 1.0)))
    assert(res.histogram.counts == manual.counts)
  }

  test("run rejects an edge id outside [1, numEdges] before the FM-index sees it") {
    for (bad <- Seq(0, -1, paperNetwork.numEdges + 1)) {
      val q = Spq(Vector(A, bad, E), FixedInterval(0, 15), None, Some(2), 0)
      val e = intercept[IllegalArgumentException](proc().run(q, NonePartitioner))
      assert(e.getMessage.contains(s"edge id $bad at path position 1"))
    }
  }

  test("a trip query that does not terminate names its stuck sub-query") {
    // 1 s steps make the widen ladder ~3 000 rungs long, and β is out of reach,
    // so the one-segment query spends its 200 · (1 + 1) steps widening.
    val splitter = new Splitter((1L to 3000L).toVector, SigmaR, idx)
    val iv = PeriodicInterval(100, 101)
    val q = Spq(Vector(A), iv, Some(u1), Some(1000), 0)
    val e = intercept[IllegalArgumentException](new TripQueryProcessor(idx, splitter).run(q, NonePartitioner))
    assert(e.getMessage == "requirement failed: tripQuery did not terminate within 400 steps: sub-query [0, 1) " +
      s"with interval ${splitter.ladder(iv)(400)}, user ${Some(u1)}, β Some(1000) and relaxed = false is still queued")
  }

  test("run matches the reference Procedure 6 on TestScale queries (every π, σ, workload and layout)") {
    val s = Experiments.TestScale
    val net = NetworkGen.generate(s.gridW, s.gridH, s.seed)
    val trajs = TrajectoryGen.collectTrajs(
      net, TrajectoryGen.Config(s.numTraj, s.numDrivers, s.numRoutes, s.days, s.seed))
    val sample = Workload.sampleQueries(trajs, s.numQueries, s.seed + 1)
    val alphaMin = A6.head
    def queries(qt: Workload.QueryType): Seq[Spq] = {
      val base = sample.toSeq.map(tr => Workload.baseSpq(tr, qt, alphaMin, 20))
      // The same trips with the periodic window centred on midnight, so it wraps.
      val midnight = if (qt == Workload.SpqOnly) Seq.empty else base.take(10).map { q =>
        q.copy(interval = PeriodicInterval(-alphaMin / 2, alphaMin / 2))
      }
      base ++ midnight
    }
    val wraps = Seq(Workload.Temporal, Workload.UserQ).flatMap(queries).count(_.interval match {
      case p: PeriodicInterval => java.lang.Math.floorMod(p.ts, TimeInterval.DaySec) + p.sizeSec > TimeInterval.DaySec
      case _ => false
    })
    assert(wraps >= 20)
    val Exact = math.pow(2, 53)
    var runs = 0
    var exactRuns = 0
    for {
      partitionDays <- Seq(None, Some(7))
      index = SNTIndex.build(net, trajs, CssForest, partitionDays)
      qt <- Seq(Workload.Temporal, Workload.UserQ, Workload.SpqOnly)
      qs = queries(qt)
      pi <- Seq[Partitioner](ZonePartitioner, RegularPartitioner(1), NonePartitioner)
      sigma <- Seq(SigmaR, SigmaL)
      est <- if (qt == Workload.Temporal && partitionDays.isEmpty)
               Seq(None, Some(new CardinalityEstimator(index, NoStore, IsaOnly))) else Seq(None)
    } {
      val p = new TripQueryProcessor(index, new Splitter(A6, sigma, index), 10.0, est)
      val ref = new ReferenceTripQuery(p)
      for (q <- qs) {
        val clue = s"${qt.name} ${pi.name} ${sigma.name} W=${index.partitions.length} est=${est.isDefined} $q"
        val got = p.run(q, pi)
        val want = ref.run(q, pi)
        assert(got.sub.length == want.sub.length, clue)
        for ((g, w) <- got.sub.zip(want.sub)) {
          assert(g.startIdx == w.startIdx && g.endIdx == w.endIdx && g.relaxed == w.relaxed, clue)
          assert(java.util.Arrays.equals(g.x, w.x), clue)
        }
        assert(got.indexCalls == want.indexCalls, clue)
        assert(got.estimatorSkips == want.estimatorSkips, clue)
        // Integer counts below 2^53 sum exactly in any order, so there the
        // histograms must be identical. Beyond it the map kernel's hash-order
        // sums and the dense kernel's bucket-order sums round differently.
        if (want.histogram.total < Exact) {
          assert(got.histogram == want.histogram, clue)
          exactRuns += 1
        } else {
          assert(got.histogram.h == want.histogram.h, clue)
          assert(got.histogram.counts.keySet == want.histogram.counts.keySet, clue)
          for ((b, c) <- want.histogram.counts)
            assert(math.abs(got.histogram.counts(b) - c) <= 1e-13 * c, clue)
        }
        runs += 1
      }
    }
    assert(runs == 2 * (50 + 50 + 40) * 3 * 2 + (50 * 3 * 2))
    info(s"$exactRuns of $runs histograms in the exact regime")
    assert(exactRuns * 2 > runs)
  }

  test("run matches the reference Procedure 6 with the CSS-Fast and BT-Fast estimators (TestScale)") {
    val s = Experiments.TestScale
    val net = NetworkGen.generate(s.gridW, s.gridH, s.seed)
    val trajs = TrajectoryGen.collectTrajs(
      net, TrajectoryGen.Config(s.numTraj, s.numDrivers, s.numRoutes, s.days, s.seed))
    val index = SNTIndex.build(net, trajs, CssForest, None)
    val sample = Workload.sampleQueries(trajs, s.numQueries, s.seed + 3)
    val alphaMin = A6.head
    var runs = 0
    var skips = 0
    var calls = 0
    for {
      mode <- Seq(CssFast, BtFast)
      est = new CardinalityEstimator(index, NoStore, mode)
      qt <- Seq(Workload.Temporal, Workload.UserQ)
      beta <- Seq(3, 20) // β = 3 puts many estimates next to it, so shift-and-enlarge decides skips
      base = sample.toSeq.map(tr => Workload.baseSpq(tr, qt, alphaMin, beta))
      q <- base ++ base.take(10).map(_.copy(interval = PeriodicInterval(-alphaMin / 2, alphaMin / 2)))
      pi <- Seq[Partitioner](ZonePartitioner, RegularPartitioner(1))
      sigma <- Seq(SigmaR, SigmaL)
    } {
      val p = new TripQueryProcessor(index, new Splitter(A6, sigma, index), 10.0, Some(est))
      val clue = s"${mode.name} ${qt.name} β=$beta ${pi.name} ${sigma.name} $q"
      val got = p.run(q, pi)
      val want = new ReferenceTripQuery(p).run(q, pi)
      assert(got.sub.length == want.sub.length, clue)
      for ((g, w) <- got.sub.zip(want.sub)) {
        assert(g.startIdx == w.startIdx && g.endIdx == w.endIdx && g.relaxed == w.relaxed, clue)
        assert(java.util.Arrays.equals(g.x, w.x), clue)
      }
      assert(got.indexCalls == want.indexCalls, clue)
      assert(got.estimatorSkips == want.estimatorSkips, clue)
      assert(got.histogram.counts.keySet == want.histogram.counts.keySet, clue)
      for ((b, c) <- want.histogram.counts)
        assert(math.abs(got.histogram.counts(b) - c) <= 1e-13 * c, clue)
      runs += 1
      skips += got.estimatorSkips
      calls += got.indexCalls
    }
    assert(runs == 2 * 2 * 2 * 50 * 2 * 2)
    info(s"$runs runs, $skips estimator skips, $calls index calls")
    assert(skips > runs && calls > runs)
  }

  test("run matches the reference Procedure 6 with the CSS-Acc estimator (TestScale)") {
    val s = Experiments.TestScale
    val net = NetworkGen.generate(s.gridW, s.gridH, s.seed)
    val trajs = TrajectoryGen.collectTrajs(
      net, TrajectoryGen.Config(s.numTraj, s.numDrivers, s.numRoutes, s.days, s.seed))
    val index = SNTIndex.build(net, trajs, CssForest, None)
    val est = new CardinalityEstimator(index, InMemoryStore(trajs.toSeq, 600), CssAcc)
    val sample = Workload.sampleQueries(trajs, s.numQueries, s.seed + 3)
    val alphaMin = A6.head
    var runs = 0
    var skips = 0
    var calls = 0
    for {
      qt <- Seq(Workload.Temporal, Workload.UserQ)
      beta <- Seq(3, 20)
      base = sample.toSeq.map(tr => Workload.baseSpq(tr, qt, alphaMin, beta))
      q <- base ++ base.take(10).map(_.copy(interval = PeriodicInterval(-alphaMin / 2, alphaMin / 2)))
      pi <- Seq[Partitioner](ZonePartitioner, RegularPartitioner(1))
      sigma <- Seq(SigmaR, SigmaL)
    } {
      val p = new TripQueryProcessor(index, new Splitter(A6, sigma, index), 10.0, Some(est))
      val clue = s"${qt.name} β=$beta ${pi.name} ${sigma.name} $q"
      val got = p.run(q, pi)
      val want = new ReferenceTripQuery(p).run(q, pi)
      assert(got.sub.length == want.sub.length, clue)
      for ((g, w) <- got.sub.zip(want.sub)) {
        assert(g.startIdx == w.startIdx && g.endIdx == w.endIdx && g.relaxed == w.relaxed, clue)
        assert(java.util.Arrays.equals(g.x, w.x), clue)
      }
      assert(got.indexCalls == want.indexCalls, clue)
      assert(got.estimatorSkips == want.estimatorSkips, clue)
      assert(got.histogram.counts.keySet == want.histogram.counts.keySet, clue)
      for ((b, c) <- want.histogram.counts)
        assert(math.abs(got.histogram.counts(b) - c) <= 1e-13 * c, clue)
      runs += 1
      skips += got.estimatorSkips
      calls += got.indexCalls
    }
    assert(runs == 2 * 2 * 50 * 2 * 2)
    info(s"$runs runs, $skips estimator skips, $calls index calls")
    assert(skips > runs && calls > runs)
  }

  test("SubResult requires a non-empty sample and stores its statistics") {
    val e = intercept[IllegalArgumentException](SubResult(2, 4, Array.empty, relaxed = false))
    assert(e.getMessage.contains("empty travel-time sample for sub-path [2, 4)"))
    val r = SubResult(0, 1, Array(7.0, 3.0, 11.0, 3.0), relaxed = false)
    assert(r.min == 3.0 && r.max == 11.0 && r.mean == 6.0)
  }
}
