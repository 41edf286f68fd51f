package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Metrics
import repro.hist.HistogramStore
import repro.testutil.Fixtures

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
    assert(new CardinalityEstimator(idx, None, IsaOnly).estimate(q) == 3.0)
  }

  test("ISA mode ignores every predicate") {
    val q = Spq(Vector(A, B), PeriodicInterval(0, 900), Some(u1), Some(5), 0)
    assert(new CardinalityEstimator(idx, None, IsaOnly).estimate(q) == 3.0)
  }

  test("Fast modes use the uniform time-of-day selectivity (Eq. 1)") {
    val q = Spq(Vector(A, B), PeriodicInterval(0, 8640), None, Some(5), 0) // 10% of a day
    val e = new CardinalityEstimator(idx, Some(store), CssFast).estimate(q)
    assert(math.abs(e - 3.0 * 0.1) < 1e-9)
  }

  test("Acc modes use the histogram-store selectivity (Eq. 2)") {
    // Window [0, 600) covers the only non-empty bucket of A → selectivity 1.
    val q = Spq(Vector(A, B), PeriodicInterval(0, 600), None, Some(5), 0)
    val e = new CardinalityEstimator(idx, Some(store), CssAcc).estimate(q)
    assert(math.abs(e - 3.0) < 1e-9)
    // Window [43200, 43800) covers no entries → estimate 0.
    val q2 = Spq(Vector(A, B), PeriodicInterval(43200, 43800), None, Some(5), 0)
    assert(new CardinalityEstimator(idx, Some(store), CssAcc).estimate(q2) == 0.0)
  }

  test("Acc modes read a window of a day or more as every time of day, as Fast modes do") {
    // Shift-and-enlarge can grow a window past 24 h. Reduced mod 1 day, this
    // one would read as [43200, 44400), which holds no entry of A.
    val q = Spq(Vector(A, B), PeriodicInterval(43200, 43200 + 86400 + 1200), None, Some(5), 0)
    for ((acc, fast) <- Seq(CssAcc -> CssFast, BtAcc -> BtFast)) {
      val e = new CardinalityEstimator(idx, Some(store), acc).estimate(q)
      assert(e == new CardinalityEstimator(idx, Some(store), fast).estimate(q), acc.name)
      assert(e == 3.0, acc.name)
    }
  }

  test("user predicate multiplies the Selinger 1/10 factor") {
    val q = Spq(Vector(A, B), PeriodicInterval(0, 8640), Some(u1), Some(5), 0)
    val e = new CardinalityEstimator(idx, Some(store), CssFast).estimate(q)
    assert(math.abs(e - 3.0 * 0.1 * 0.1) < 1e-9)
  }

  test("CSS modes count fixed time frames exactly") {
    // Edge A entries at t = 0, 2, 4, 6; frame [1, 5) holds exactly 2 of 4.
    val q = Spq(Vector(A), FixedInterval(1, 5), None, Some(5), 0)
    val e = new CardinalityEstimator(idx, Some(store), CssFast).estimate(q)
    assert(math.abs(e - 4.0 * 0.5) < 1e-9)
  }

  test("BT modes approximate fixed time frames with Eq. 3") {
    // span = max − min = 6; frame [1, 5) → 4/6 of the span.
    val q = Spq(Vector(A), FixedInterval(1, 5), None, Some(5), 0)
    val e = new CardinalityEstimator(btIdx, Some(store), BtFast).estimate(q)
    assert(math.abs(e - 4.0 * (4.0 / 6.0)) < 1e-9)
  }

  test("Eq. 3 clamps to [0, 1]") {
    val q = Spq(Vector(A), FixedInterval(-100, 100), None, Some(5), 0)
    val e = new CardinalityEstimator(btIdx, Some(store), BtFast).estimate(q)
    assert(math.abs(e - 4.0) < 1e-9)
  }

  test("unknown edge data yields estimate 0 for fixed frames") {
    val q = Spq(Vector(F, A), FixedInterval(0, 5), None, Some(5), 0) // path never traversed
    assert(new CardinalityEstimator(idx, Some(store), CssFast).estimate(q) == 0.0)
  }

  test("q-error floors both sides at 1 (Stefanoni et al.)") {
    assert(Metrics.qError(0.0, 0L) == 1.0)
    assert(Metrics.qError(10.0, 1L) == 10.0)
    assert(Metrics.qError(1.0, 10L) == 10.0)
    assert(Metrics.qError(0.5, 0L) == 1.0)
    assert(math.abs(Metrics.qError(20.0, 5L) - 4.0) < 1e-12)
  }
}
