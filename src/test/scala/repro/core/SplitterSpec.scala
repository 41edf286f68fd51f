package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{Experiments, Workload}
import repro.network.NetworkGen
import repro.testutil.Fixtures
import repro.traj.TrajectoryGen

/** Procedure 1 (σ) behaviour: widen ladder → path split → drop f → relax. */
class SplitterSpec extends AnyFunSuite {
  import Fixtures._

  private val A6: Vector[Long] = Vector(15L, 30L, 45L, 60L, 90L, 120L).map(_ * 60L)
  private val idx = SNTIndex.build(paperNetwork, paperTrajs)
  private def splitter(m: SplitMethod) = new Splitter(A6, m, idx)

  test("periodic interval below αmax is widened to the next ladder size") {
    val q = Spq(Vector(A, B), PeriodicInterval(0, 900), None, Some(3), 0)
    val out = splitter(SigmaR)(q)
    assert(out.length == 1)
    val iv = out.head.interval.asInstanceOf[PeriodicInterval]
    assert(iv.sizeSec == 1800)
    assert(iv.ts == -450 && iv.te == 1350) // symmetric widening
    assert(out.head.path == q.path)
  }

  test("widening walks the whole ladder 15→30→45→60→90→120") {
    var q = Spq(Vector(A, B), PeriodicInterval(0, 900), None, Some(3), 0)
    val sizes = collection.mutable.ArrayBuffer.empty[Long]
    for (_ <- 0 until 5) {
      q = splitter(SigmaR)(q).head
      sizes += q.interval.sizeSec
    }
    assert(sizes.toSeq == Seq(1800L, 2700L, 3600L, 5400L, 7200L))
  }

  test("ladder lists the windows apply widens through, on and off the sizes of A") {
    for (minutes <- Seq(15L, 20L, 120L, 150L); ts <- Seq(-450L, 0L, 86000L)) {
      val base = PeriodicInterval(ts, ts + minutes * 60)
      var q = Spq(Vector(A, B), base, Some(u1), Some(3), 2)
      val walked = Vector.newBuilder[PeriodicInterval]
      walked += base
      var next = splitter(SigmaR)(q)
      while (next.length == 1 && next.head.path == q.path && next.head.user == q.user &&
             next.head.interval != q.interval) {
        q = next.head
        walked += q.interval.asInstanceOf[PeriodicInterval]
        next = splitter(SigmaR)(q)
      }
      val ladder = splitter(SigmaR).ladder(base)
      assert(ladder == walked.result(), s"base $base")
      assert(ladder.last.sizeSec == math.max(minutes * 60, A6.last), s"base $base")
    }
    assert(splitter(SigmaR).ladder(PeriodicInterval(0, 1200)).map(_.sizeSec) ==
      Vector(1200L, 1800L, 2700L, 3600L, 5400L, 7200L))
    assert(splitter(SigmaR).ladder(PeriodicInterval(0, 9000)).map(_.sizeSec) == Vector(9000L))
  }

  test("at αmax, σR halves the path and shrinks the interval to αmin") {
    val q = Spq(Vector(A, C, D, E), PeriodicInterval(0, 7200), None, Some(3), 0)
    val out = splitter(SigmaR)(q)
    assert(out.map(_.path) == Vector(Vector(A, C), Vector(D, E)))
    assert(out.forall(_.interval.sizeSec == 900))
    assert(out(0).startIdx == 0 && out(0).endIdx == 2)
    assert(out(1).startIdx == 2 && out(1).endIdx == 4)
  }

  test("σR on odd-length paths takes ⌊l/2⌋") {
    val q = Spq(Vector(A, B, E), PeriodicInterval(0, 7200), None, Some(3), 0)
    val out = splitter(SigmaR)(q)
    assert(out.map(_.path) == Vector(Vector(A), Vector(B, E)))
  }

  test("σL picks the longest prefix with ≥ β matches") {
    // With β = 2: ⟨A,B⟩ has 3 matches, ⟨A,B,E⟩ is the full path (m < l), so
    // for P=⟨A,B,E⟩ the longest allowed prefix is m=2.
    val q = Spq(Vector(A, B, E), FixedInterval(0, idx.tmaxGlobal), None, Some(2), 0)
    val out = splitter(SigmaL)(q)
    assert(out.map(_.path) == Vector(Vector(A, B), Vector(E)))
  }

  test("σL falls back to m=1 when even the first segment misses β") {
    val q = Spq(Vector(F, A), FixedInterval(0, idx.tmaxGlobal), None, Some(50), 0)
    val out = splitter(SigmaL)(q)
    assert(out.map(_.path) == Vector(Vector(F), Vector(A)))
  }

  test("σL's β-capped prefix probe picks the split point of the uncapped count (TestScale)") {
    val s = Experiments.TestScale
    val net = NetworkGen.generate(s.gridW, s.gridH, s.seed)
    val trajs = TrajectoryGen.collectTrajs(
      net, TrajectoryGen.Config(s.numTraj, s.numDrivers, s.numRoutes, s.days, s.seed))
    val full = SNTIndex.build(net, trajs, CssForest, None)
    // The greedy of Procedure 1 over exact (uncapped) counts on the FULL index.
    def wantM(q: Spq): Int = {
      val beta = q.beta.get
      var m = 1
      while (m < q.length - 1 &&
             full.matchCountCapped(q.path.take(m + 1), q.interval, q.user, Int.MaxValue) >= beta) m += 1
      m
    }
    val qs = for {
      tr <- Workload.sampleQueries(trajs, s.numQueries, s.seed + 2).toSeq
      iv <- Seq(FixedInterval(0L, tr.t0), FixedInterval(tr.t0 - 30 * 86400L, tr.t0 + 86400L),
                PeriodicInterval(tr.t0 - A6.last / 2, tr.t0 + A6.last / 2))
      user <- Seq(None, Some(tr.user))
      beta <- Seq(2, 20)
    } yield Spq(tr.edges.toVector, iv, user, Some(beta), 0)
    val ms = for (index <- Seq(full, SNTIndex.build(net, trajs, CssForest, Some(7))); q <- qs) yield {
      val m = wantM(q)
      val got = new Splitter(A6, SigmaL, index)(q).map(_.path.length)
      assert(got == Vector(m, q.length - m), s"W=${index.partitions.length} $q")
      m
    }
    assert(ms.count(_ > 1) >= ms.length / 4) // the probe does more than fall back to m = 1
  }

  test("fixed-interval sub-queries keep their interval when split") {
    val q = Spq(Vector(A, C, D, E), FixedInterval(0, 15), None, Some(3), 0)
    val out = splitter(SigmaR)(q)
    assert(out.forall(_.interval == FixedInterval(0, 15)))
  }

  test("single-segment query with a user filter drops the filter first") {
    val q = Spq(Vector(A), PeriodicInterval(0, 7200), Some(u1), Some(3), 0)
    val out = splitter(SigmaR)(q)
    assert(out.length == 1)
    assert(out.head.user.isEmpty)
    assert(out.head.interval == q.interval)
    assert(!out.head.relaxed)
  }

  test("single-segment query without filters relaxes to [0, tmax) and drops β") {
    val q = Spq(Vector(A), PeriodicInterval(0, 7200), None, Some(3), 0)
    val out = splitter(SigmaR)(q)
    assert(out.length == 1)
    assert(out.head.relaxed)
    assert(out.head.beta.isEmpty)
    assert(out.head.interval == FixedInterval(0, idx.tmaxGlobal))
  }

  test("repeatedly applying σ always terminates in a relaxed single-segment query") {
    var queue = List(Spq(Vector(A, C, D, E), PeriodicInterval(0, 900), Some(u1), Some(999), 0))
    var steps = 0
    val s = splitter(SigmaR)
    while (queue.exists(q => !q.relaxed) && steps < 200) {
      steps += 1
      val q = queue.find(q => !q.relaxed).get
      queue = queue.filterNot(_ eq q) ++ s(q).toList
    }
    assert(queue.forall(_.relaxed))
    // Relaxed singletons tile the original path.
    assert(queue.sortBy(_.startIdx).flatMap(_.path) == List(A, C, D, E))
  }

  test("PeriodicInterval.widen/shrink round-trip preserves the centre") {
    val p = PeriodicInterval(1000, 1900)
    val w = p.widen(1800)
    assert(w.sizeSec == 1800)
    val back = w.shrink(900)
    assert(back.sizeSec == 900)
    assert(back.ts + back.sizeSec / 2 == p.ts + p.sizeSec / 2)
  }

  test("PeriodicInterval membership wraps across midnight") {
    val p = PeriodicInterval(-600, 600) // 23:50 – 00:10
    assert(p.contains(86400L - 300))    // 23:55
    assert(p.contains(300))             // 00:05
    assert(!p.contains(43200))          // noon
    assert(p.contains(86400L * 5 + 599))
  }

  test("shiftAndEnlarge shifts the start and widens the end") {
    val p = PeriodicInterval(1000, 1900)
    val s = p.shiftAndEnlarge(120.4, 60.2)
    assert(s.ts == 1120)
    assert(s.te == 1900 + 120 + 60)
  }
}
