package repro.hist

/** Discrete travel-time histogram with fixed bucket width `h` seconds
  * (§2.3). Bucket i covers [i·h, (i+1)·h). Counts are doubles because
  * convolution multiplies counts.
  */
final case class Histogram(h: Double, counts: Map[Int, Double]) {
  def total: Double = counts.values.sum
  def isEmpty: Boolean = counts.isEmpty

  def bucketOf(x: Double): Int = math.floor(x / h).toInt

  /** Smoothed discrete pdf mass of §5.3.3: γ·f(x,H) + (1−γ)·uniform mass over
    * [tmin, tmax), where f is the bucket's fraction of the total mass.
    */
  def smoothedMass(x: Double, gamma: Double, tmin: Double, tmax: Double): Double = {
    val t = total
    val f = if (t <= 0) 0.0 else counts.getOrElse(bucketOf(x), 0.0) / t
    gamma * f + (1 - gamma) * (h / (tmax - tmin))
  }

  def logLikelihood(x: Double, gamma: Double, tmin: Double, tmax: Double): Double =
    math.log(smoothedMass(x, gamma, tmin, tmax))
}

object Histogram {
  /** createHistogram(X) of Procedure 6: bucket the raw travel times by
    * sorting their bucket ids and counting runs. Counts are sums of 1.0, so
    * they are exact.
    */
  def create(xs: Array[Double], h: Double): Histogram = {
    val ids = new Array[Int](xs.length)
    var i = 0
    while (i < xs.length) { ids(i) = math.floor(xs(i) / h).toInt; i += 1 }
    java.util.Arrays.sort(ids)
    val m = Map.newBuilder[Int, Double]
    i = 0
    while (i < ids.length) {
      var j = i + 1
      while (j < ids.length && ids(j) == ids(i)) j += 1
      m += ids(i) -> (j - i).toDouble
      i = j
    }
    Histogram(h, m.result())
  }

  /** Largest bucket span the dense convolution allocates (2^26 buckets). */
  private val MaxSpan = 1L << 26

  /** A histogram's counts laid out densely from bucket `base`; `has` marks
    * the buckets present in the map, so a present zero count stays present.
    */
  private final class Dense(val base: Int, val c: Array[Double], val has: Array[Boolean])

  private def dense(hist: Histogram): Dense = {
    val base = hist.counts.keysIterator.min
    val c = new Array[Double](hist.counts.keysIterator.max - base + 1)
    val has = new Array[Boolean](c.length)
    for ((b, v) <- hist.counts) { c(b - base) = v; has(b - base) = true }
    new Dense(base, c, has)
  }

  /** a ∗ b over dense arrays; each output bucket sums its products in
    * ascending order of a's bucket.
    */
  private def convolveDense(a: Dense, b: Dense): Dense = {
    val c = new Array[Double](a.c.length + b.c.length - 1)
    val has = new Array[Boolean](c.length)
    var i = 0
    while (i < a.c.length) {
      if (a.has(i)) {
        val ai = a.c(i)
        var j = 0
        while (j < b.c.length) {
          if (b.has(j)) { c(i + j) += ai * b.c(j); has(i + j) = true }
          j += 1
        }
      }
      i += 1
    }
    new Dense(a.base + b.base, c, has)
  }

  /** Discrete convolution H = H1 ∗ … ∗ Hk (§2.3) of a non-empty sequence,
    * left to right: bucket indexes add, counts multiply.
    * Each histogram becomes one dense array; the result map is built once.
    * While every count stays an integer below 2^53 the result is exact, so it
    * does not depend on the summation order.
    */
  def convolveAll(hs: Seq[Histogram]): Histogram = {
    require(hs.nonEmpty, "convolveAll needs at least one histogram")
    val h = hs.head.h
    hs.foreach(o => require(o.h == h, s"bucket width mismatch: $h vs ${o.h}"))
    if (hs.lengthCompare(1) == 0) return hs.head
    if (hs.exists(_.isEmpty)) return Histogram(h, Map.empty)
    val span = hs.iterator.map(o => o.counts.keysIterator.max.toLong - o.counts.keysIterator.min + 1).sum
    require(span <= MaxSpan, s"convolution would span $span buckets; at most $MaxSpan are supported")
    val d = hs.iterator.map(dense).reduceLeft(convolveDense)
    val m = Map.newBuilder[Int, Double]
    var i = 0
    while (i < d.c.length) { if (d.has(i)) m += (d.base + i) -> d.c(i); i += 1 }
    Histogram(h, m.result())
  }
}
