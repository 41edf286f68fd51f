package repro.hist

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.TimeInterval.DaySec
import repro.traj.Traversal

/** The Histogram Store of Fig 2: a time-of-day histogram H_e per segment
  * (optionally per temporal partition), backing the Acc estimator modes'
  * selectivity formula (Eq. 2, §4.4). Built distributedly with a DataFrame
  * groupBy over the traversal Dataset.
  *
  * @param bucketSec   time-of-day bucket width in seconds (paper: 1/5/10 min)
  * @param buckets     dense count arrays keyed by (edge, partition id)
  */
final class HistogramStore(val bucketSec: Int,
                           val buckets: Map[(Int, Int), Array[Int]]) extends Serializable {
  private val nBuckets = (DaySec / bucketSec).toInt

  // Per-edge view: a selectivity lookup must only scan the edge's own
  // histograms (one per non-empty partition), not the whole store.
  private val byEdge: Map[Int, Array[Array[Int]]] =
    buckets.toSeq.groupBy(_._1._1).map { case (e, kvs) => e -> kvs.map(_._2).toArray }
  private val totals: Map[Int, Long] =
    byEdge.map { case (e, arrs) => e -> arrs.iterator.flatten.map(_.toLong).sum }

  /** Total traversal count of an edge (summed over partitions). */
  def totalOf(edge: Int): Long = totals.getOrElse(edge, 0L)

  /** Mass of edge entries whose time of day falls in the periodic window
    * [ts, te), seconds on the time line as a `PeriodicInterval` holds them:
    * nothing when te ≤ ts, the edge's total when the window spans a day or
    * more, and otherwise the window reduced mod one day, which may cross
    * midnight. Partially covered buckets are counted proportionally.
    */
  def massInTod(edge: Int, ts: Long, te: Long): Double = {
    val arrs = byEdge.getOrElse(edge, Array.empty[Array[Int]])
    if (arrs.isEmpty || te <= ts) return 0.0
    if (te - ts >= DaySec) return totalOf(edge).toDouble
    def massRange(lo: Double, hi: Double): Double = {
      var m = 0.0
      var b = math.max(0, math.floor(lo / bucketSec).toInt)
      val bEnd = math.min(nBuckets - 1, math.ceil(hi / bucketSec).toInt)
      while (b <= bEnd) {
        val blo = b.toDouble * bucketSec; val bhi = blo + bucketSec
        val overlap = math.max(0.0, math.min(bhi, hi) - math.max(blo, lo))
        if (overlap > 0) { var i = 0; while (i < arrs.length) { m += arrs(i)(b) * overlap / bucketSec; i += 1 } }
        b += 1
      }
      m
    }
    val s = ((ts % DaySec) + DaySec) % DaySec
    val e = ((te % DaySec) + DaySec) % DaySec
    if (s < e) massRange(s.toDouble, e.toDouble)
    else massRange(s.toDouble, DaySec.toDouble) + massRange(0.0, e.toDouble)
  }

  /** Eq. 2: selectivity of a periodic window on `edge`. */
  def todSelectivity(edge: Int, ts: Long, te: Long): Double = {
    val tot = totalOf(edge).toDouble
    if (tot <= 0) 0.0 else massInTod(edge, ts, te) / tot
  }

  /** Analytic memory: one dense int array per non-empty (edge, partition). */
  def memoryBytes: Long =
    buckets.size.toLong * (nBuckets.toLong * 4 + 16) + buckets.size.toLong * 48
}

object HistogramStore {
  /** Build from the traversal Dataset with a Catalyst aggregation.
    * `partitionOf` maps an entry timestamp to its temporal-partition id
    * (constant 0 when temporal partitioning is off).
    */
  def build(spark: SparkSession, traversals: Dataset[Traversal], bucketSec: Int,
            partitionDays: Option[Int] = None): HistogramStore = {
    import spark.implicits._
    val part = partitionDays match {
      case Some(days) => (col("t") / lit(DaySec * days)).cast("int")
      case None       => lit(0)
    }
    val rows = traversals
      .groupBy(col("edge"), part.as("w"), (pmod(col("t"), lit(DaySec)) / lit(bucketSec)).cast("int").as("b"))
      .agg(count(lit(1)).as("c"))
      .as[(Int, Int, Int, Long)]
      .collect()
    val nBuckets = (DaySec / bucketSec).toInt
    val m = collection.mutable.HashMap.empty[(Int, Int), Array[Int]]
    for ((edge, w, b, c) <- rows) {
      val arr = m.getOrElseUpdate((edge, w), new Array[Int](nBuckets))
      arr(b) += c.toInt
    }
    new HistogramStore(bucketSec, m.toMap)
  }
}
