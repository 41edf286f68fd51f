package repro.hist

import repro.SparkSpec
import repro.network.NetworkGen
import repro.testutil.InMemoryStore
import repro.traj.{TrajectoryGen}

/** Histogram Store built with DataFrame aggregation, checked against naive
  * per-edge time-of-day counting.
  */
class HistogramStoreSpec extends SparkSpec {

  private val net = NetworkGen.generate(10, 10, seed = 3L)
  private val cfg = TrajectoryGen.Config(200, 10, 30, 20, seed = 29L)
  private lazy val trajs = TrajectoryGen.collectTrajs(net, cfg)
  private lazy val ds = TrajectoryGen.traversals(spark, net, cfg)
  private lazy val store = HistogramStore.build(spark, ds, bucketSec = 600)

  private def naiveTotal(edge: Int): Long =
    trajs.iterator.map(_.edges.count(_ == edge)).sum.toLong

  private def naiveTodCount(edge: Int, ts: Long, te: Long): Long = {
    val entries = for (tr <- trajs; i <- 0 until tr.length if tr.edges(i) == edge) yield tr.times(i)
    entries.count { t =>
      val tod = t % 86400L
      if (ts < te) tod >= ts && tod < te
      else tod >= ts || tod < te
    }.toLong
  }

  test("totalOf matches the naive traversal count for busy edges") {
    val busy = (1 to net.numEdges).maxBy(naiveTotal)
    assert(store.totalOf(busy) == naiveTotal(busy))
  }

  test("totalOf of an untraversed edge is 0") {
    val unused = (1 to net.numEdges).find(e => naiveTotal(e) == 0)
    unused.foreach(e => assert(store.totalOf(e) == 0))
  }

  test("massInTod on bucket-aligned windows equals naive time-of-day counts") {
    val busy = (1 to net.numEdges).maxBy(naiveTotal)
    for ((ts, te) <- Seq((0L, 600L), (28800L, 30000L), (0L, 86400L), (42000L, 48000L))) {
      assert(math.abs(store.massInTod(busy, ts, te) - naiveTodCount(busy, ts, te)) < 1e-6,
             s"window=[$ts,$te)")
    }
  }

  test("massInTod handles windows that wrap midnight") {
    val busy = (1 to net.numEdges).maxBy(naiveTotal)
    val m = store.massInTod(busy, 85800L, 87000L) // 23:50–00:10
    assert(math.abs(m - naiveTodCount(busy, 85800L, 600L)) < 1e-6)
  }

  test("partially covered buckets are counted proportionally") {
    // One synthetic edge with 10 entries in bucket 0.
    val s = new HistogramStore(600, Map((1, 0) -> { val a = new Array[Int](144); a(0) = 10; a }))
    assert(math.abs(s.massInTod(1, 0, 300) - 5.0) < 1e-9)
    assert(math.abs(s.massInTod(1, 150, 450) - 5.0) < 1e-9)
  }

  test("todSelectivity is mass over total") {
    val busy = (1 to net.numEdges).maxBy(naiveTotal)
    val sel = store.todSelectivity(busy, 25200L, 32400L) // 7:00–9:00
    assert(sel >= 0.0 && sel <= 1.0)
    assert(math.abs(sel - store.massInTod(busy, 25200L, 32400L) / store.totalOf(busy)) < 1e-12)
  }

  test("full-day window has selectivity 1 on traversed edges") {
    val busy = (1 to net.numEdges).maxBy(naiveTotal)
    assert(math.abs(store.todSelectivity(busy, 0, 86400) - 1.0) < 1e-9)
  }

  test("partitioned store splits counts by time window but preserves totals") {
    val parted = HistogramStore.build(spark, ds, 600, partitionDays = Some(7))
    val busy = (1 to net.numEdges).maxBy(naiveTotal)
    assert(parted.totalOf(busy) == store.totalOf(busy))
    assert(parted.buckets.keys.map(_._2).toSet.size > 1)
  }

  test("the in-memory test store equals the Spark-built store") {
    for (bucketSec <- Seq(60, 600)) {
      val built = HistogramStore.build(spark, ds, bucketSec)
      val mem = InMemoryStore(trajs.toSeq, bucketSec)
      assert(mem.buckets.keySet == built.buckets.keySet, s"bucketSec=$bucketSec")
      for ((k, arr) <- built.buckets) assert(mem.buckets(k).sameElements(arr), s"bucketSec=$bucketSec $k")
    }
  }

  test("a bucket width that does not divide a day or a partition size that is not > 0 is rejected") {
    for (bucketSec <- Seq(7000, 0, -600)) {
      val msg = s"bucket width $bucketSec s; it must be > 0 and divide 86400"
      val e1 = intercept[IllegalArgumentException](HistogramStore.build(spark, ds, bucketSec))
      assert(e1.getMessage.contains(msg))
      val e2 = intercept[IllegalArgumentException](new HistogramStore(bucketSec, Map.empty))
      assert(e2.getMessage.contains(msg))
    }
    for (days <- Seq(0, -7)) {
      val e = intercept[IllegalArgumentException](HistogramStore.build(spark, ds, 600, Some(days)))
      assert(e.getMessage.contains(s"partition size $days days; it must be > 0"))
    }
  }

  test("memory grows with partition count and with finer buckets") {
    val parted = HistogramStore.build(spark, ds, 600, partitionDays = Some(7))
    assert(parted.memoryBytes > store.memoryBytes)
    val fine = HistogramStore.build(spark, ds, 60)
    assert(fine.memoryBytes > store.memoryBytes)
  }
}
