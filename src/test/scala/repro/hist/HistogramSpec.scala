package repro.hist

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.ReferenceTripQuery

import scala.util.Random

class HistogramSpec extends AnyFunSuite {

  test("create buckets raw travel times (paper §2.3 example, h = 1)") {
    // Dur(tr0) = 11, Dur(tr3) = 10 → H = {[10,11):1, [11,12):1}
    val h = Histogram.create(Array(11.0, 10.0), 1.0)
    assert(h.counts == Map(10 -> 1.0, 11 -> 1.0))
  }

  test("paper §2.3 convolution example: H1 ∗ H2") {
    // H1 = {[6,7):2, [7,8):1}, H2 = {[4,5):2, [5,6):1}
    // → H = {[10,11):4, [11,12):4, [12,13):1}
    val h1 = Histogram(1.0, Map(6 -> 2.0, 7 -> 1.0))
    val h2 = Histogram(1.0, Map(4 -> 2.0, 5 -> 1.0))
    val h = Histogram.convolveAll(Seq(h1, h2))
    assert(h.counts == Map(10 -> 4.0, 11 -> 4.0, 12 -> 1.0))
  }

  test("convolution is commutative and total mass multiplies") {
    val rnd = new Random(41)
    for (_ <- 0 until 20) {
      val h1 = Histogram.create(Array.fill(1 + rnd.nextInt(20))(rnd.nextDouble() * 100), 10.0)
      val h2 = Histogram.create(Array.fill(1 + rnd.nextInt(20))(rnd.nextDouble() * 100), 10.0)
      val a = Histogram.convolveAll(Seq(h1, h2)); val b = Histogram.convolveAll(Seq(h2, h1))
      assert(a.counts == b.counts)
      assert(math.abs(a.total - h1.total * h2.total) < 1e-9)
    }
  }

  test("convolveAll reduces left to right over several histograms") {
    val hs = Seq(
      Histogram(1.0, Map(1 -> 1.0)),
      Histogram(1.0, Map(2 -> 1.0)),
      Histogram(1.0, Map(3 -> 2.0)))
    val h = Histogram.convolveAll(hs)
    assert(h.counts == Map(6 -> 2.0))
  }

  test("convolve rejects mismatched bucket widths") {
    intercept[IllegalArgumentException] {
      Histogram.convolveAll(Seq(Histogram(1.0, Map(0 -> 1.0)), Histogram(2.0, Map(0 -> 1.0))))
    }
  }

  test("smoothedMass mixes the bucket fraction with the uniform floor (γ)") {
    val h = Histogram(10.0, Map(0 -> 1.0, 1 -> 3.0))
    val gamma = 0.99
    val p = h.smoothedMass(15.0, gamma, 0.0, 100.0)
    assert(math.abs(p - (0.99 * 0.75 + 0.01 * 0.1)) < 1e-12)
    // Outside every bucket the uniform floor keeps the pdf positive.
    val p0 = h.smoothedMass(95.0, gamma, 0.0, 100.0)
    assert(p0 > 0 && math.abs(p0 - 0.01 * 0.1) < 1e-12)
  }

  test("logLikelihood never hits -Infinity inside the smoothing domain") {
    val h = Histogram(10.0, Map(2 -> 5.0))
    assert(!h.logLikelihood(9999.0, 0.99, 0.0, 7200.0).isNegInfinity)
  }

  test("bucketOf floors into the right bucket") {
    val h = Histogram(10.0, Map.empty)
    assert(h.bucketOf(0.0) == 0)
    assert(h.bucketOf(9.99) == 0)
    assert(h.bucketOf(10.0) == 1)
    assert(h.bucketOf(105.5) == 10)
  }

  test("create + convolution equals direct histogram of pairwise sums for point masses") {
    val xs = Array(10.0, 20.0)
    val ys = Array(5.0)
    val conv = Histogram.convolveAll(Seq(Histogram.create(xs, 5.0), Histogram.create(ys, 5.0)))
    val direct = Histogram.create(for (x <- xs; y <- ys) yield x + y, 5.0)
    assert(conv.counts == direct.counts)
  }

  /** A random histogram over bucket ids in [lo, lo + span): negative ids,
    * gaps and single buckets all occur.
    */
  private def randomHist(rnd: Random, count: Random => Double): Histogram = {
    val lo = rnd.nextInt(41) - 20
    val span = 1 + rnd.nextInt(12)
    val n = 1 + rnd.nextInt(span)
    val ids = rnd.shuffle((lo until lo + span).toList).take(n)
    Histogram(10.0, ids.map(_ -> count(rnd)).toMap)
  }

  test("convolveAll equals a left fold of the naive map convolution (k = 1..5)") {
    val rnd = new Random(2019)
    for (k <- 1 to 5; _ <- 0 until 200) {
      // Integer counts keep every sum exact, so the result is bit-identical.
      val hs = Seq.fill(k)(randomHist(rnd, r => (1 + r.nextInt(9)).toDouble))
      assert(Histogram.convolveAll(hs) == hs.reduceLeft(ReferenceTripQuery.convolve), hs)
    }
  }

  test("convolveAll matches the naive convolution on fractional counts and keeps zero counts") {
    val rnd = new Random(53)
    for (k <- 2 to 5; _ <- 0 until 100) {
      val hs = Seq.fill(k)(randomHist(rnd, r => if (r.nextInt(8) == 0) 0.0 else r.nextDouble() * 5))
      val got = Histogram.convolveAll(hs).counts
      val want = hs.reduceLeft(ReferenceTripQuery.convolve).counts
      assert(got.keySet == want.keySet, hs)
      for ((b, c) <- want) assert(math.abs(got(b) - c) <= 1e-12 * math.max(1.0, c), hs)
    }
  }

  test("convolveAll of one histogram or with an empty one follows the fold") {
    val one = Histogram(10.0, Map(-3 -> 2.0, 4 -> 0.0))
    assert(Histogram.convolveAll(Seq(one)) == one)
    val empty = Histogram(10.0, Map.empty)
    assert(Histogram.convolveAll(Seq(one, empty, one)) == empty)
    assert(Histogram.convolveAll(Seq(one, empty)) == ReferenceTripQuery.convolve(one, empty))
  }

  test("convolveAll fails clearly on mixed bucket widths or no histograms") {
    val e1 = intercept[IllegalArgumentException] {
      Histogram.convolveAll(Seq(Histogram(10.0, Map(0 -> 1.0)), Histogram(10.0, Map(1 -> 1.0)),
                                Histogram(5.0, Map(0 -> 1.0))))
    }
    assert(e1.getMessage.contains("bucket width mismatch: 10.0 vs 5.0"))
    val e2 = intercept[IllegalArgumentException](Histogram.convolveAll(Seq.empty))
    assert(e2.getMessage.contains("at least one histogram"))
  }

  test("create on a primitive sample equals the groupBy histogram") {
    val rnd = new Random(7)
    for (_ <- 0 until 300) {
      val xs = Array.fill(rnd.nextInt(60))(rnd.nextGaussian() * 200 + rnd.nextInt(3) * 50)
      val h = Seq(1.0, 10.0, 600.0)(rnd.nextInt(3))
      assert(Histogram.create(xs, h) == ReferenceTripQuery.create(xs.toSeq, h))
    }
  }
}
