package repro.sparkspq

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.network.NetworkGen
import repro.testutil.Fixtures
import repro.traj.TrajectoryGen

import scala.util.Random

/** The DataFrame SPQ engine checked three ways: against the naive scan,
  * against the in-memory SNT-index, and against DuckDB via the Oracle
  * (an independent l-way self-join formulation).
  */
class SparkSPQSpec extends SparkSpec {

  private val net = NetworkGen.generate(10, 10, seed = 3L)
  private val cfg = TrajectoryGen.Config(200, 10, 30, 20, seed = 31L)
  private lazy val trajs = TrajectoryGen.collectTrajs(net, cfg)
  private lazy val ds = TrajectoryGen.traversals(spark, net, cfg)
  private lazy val engine = SparkSPQ.build(spark, ds)
  private lazy val index = SNTIndex.build(net, trajs)

  private def round6(xs: Seq[Double]): Seq[Double] = xs.sorted.map(x => math.round(x * 1e6) / 1e6)

  private def sparkTT(path: Seq[Int], interval: TimeInterval, user: Option[Int]): Seq[Double] =
    engine.travelTimes(path, interval, user).select("path_tt").collect().map(_.getDouble(0)).toSeq

  private def randomQueryPaths(n: Int, seed: Long): Seq[(Vector[Int], Long)] = {
    val rnd = new Random(seed)
    (0 until n).map { _ =>
      val tr = trajs(rnd.nextInt(trajs.length))
      val lo = rnd.nextInt(tr.length)
      val hi = math.min(tr.length, lo + 1 + rnd.nextInt(4))
      (tr.edges.slice(lo, hi).toVector, tr.times(lo))
    }
  }

  test("SparkSPQ matches the naive scan on fixed intervals") {
    for ((path, anchor) <- randomQueryPaths(12, 201)) {
      val iv = FixedInterval(anchor - 80000, anchor + 80000)
      val want = Fixtures.naiveTravelTimes(trajs.toSeq, path, iv, None)
      assert(round6(sparkTT(path, iv, None)) == round6(want), s"path=$path")
    }
  }

  test("SparkSPQ matches the naive scan on periodic intervals") {
    for ((path, anchor) <- randomQueryPaths(12, 202)) {
      val iv = PeriodicInterval(anchor - 1800, anchor + 1800)
      val want = Fixtures.naiveTravelTimes(trajs.toSeq, path, iv, None)
      assert(round6(sparkTT(path, iv, None)) == round6(want), s"path=$path")
    }
  }

  test("SparkSPQ honours the user filter") {
    val rnd = new Random(203)
    for (_ <- 0 until 8) {
      val tr = trajs(rnd.nextInt(trajs.length))
      val path = tr.edges.take(1 + rnd.nextInt(3)).toVector
      val iv = FixedInterval(0, index.tmaxGlobal)
      val want = Fixtures.naiveTravelTimes(trajs.toSeq, path, iv, Some(tr.user))
      assert(round6(sparkTT(path, iv, Some(tr.user))) == round6(want))
    }
  }

  test("SparkSPQ and the SNT-index agree (modulo the single-segment fallback)") {
    for ((path, anchor) <- randomQueryPaths(15, 204)) {
      val iv = FixedInterval(anchor - 50000, anchor + 50000)
      val q = Spq(path, iv, None, None, 0)
      val sntRaw = index.getTravelTimes(q).toSeq
      val sdf = sparkTT(path, iv, None)
      // Procedure 5's speed-limit fallback only exists on the index side.
      if (!(sdf.isEmpty && path.length == 1)) {
        assert(round6(sntRaw) == round6(sdf), s"path=$path")
      }
    }
  }

  test("SparkSPQ result equals DuckDB oracle (l-way self-join) on fixed intervals") {
    val (path, anchor) = randomQueryPaths(30, 205).find(_._1.length >= 2).get
    val iv = FixedInterval(anchor - 80000, anchor + 80000)
    val sdf = engine.travelTimes(path, iv, None)
      .select(col("trajid"), col("t"), round(col("path_tt"), 3).as("path_tt"))
    val sql = s"SELECT trajid, t, ROUND(path_tt, 3) AS path_tt FROM (${SparkSPQ.oracleSql("trav", path, iv, None)}) AS sub"
    Oracle.assertEquivalent(sdf, sql, "trav" -> ds.toDF())
  }

  test("SparkSPQ result equals DuckDB oracle on periodic intervals") {
    val (path, anchor) = randomQueryPaths(30, 206).find(_._1.length >= 2).get
    val iv = PeriodicInterval(anchor - 1800, anchor + 1800)
    val sdf = engine.travelTimes(path, iv, None)
      .select(col("trajid"), col("t"), round(col("path_tt"), 3).as("path_tt"))
    val sql = s"SELECT trajid, t, ROUND(path_tt, 3) AS path_tt FROM (${SparkSPQ.oracleSql("trav", path, iv, None)}) AS sub"
    Oracle.assertEquivalent(sdf, sql, "trav" -> ds.toDF())
  }

  test("SparkSPQ result equals DuckDB oracle with a user filter") {
    val rnd = new Random(207)
    val tr = trajs(rnd.nextInt(trajs.length))
    val path = tr.edges.take(2).toVector
    val iv = FixedInterval(0, index.tmaxGlobal)
    val sdf = engine.travelTimes(path, iv, Some(tr.user))
      .select(col("trajid"), col("t"), round(col("path_tt"), 3).as("path_tt"))
    val sql = s"SELECT trajid, t, ROUND(path_tt, 3) AS path_tt FROM (${SparkSPQ.oracleSql("trav", path, iv, Some(tr.user))}) AS sub"
    Oracle.assertEquivalent(sdf, sql, "trav" -> ds.toDF())
  }

  test("SNT-index travel-time multiset equals the DuckDB oracle's") {
    val (path, anchor) = randomQueryPaths(30, 208).find(_._1.length >= 3).get
    val iv = FixedInterval(anchor - 80000, anchor + 80000)
    val q = Spq(path, iv, None, None, 0)
    val snt = round6(index.getTravelTimes(q).toSeq).map(x => math.round(x * 1e3) / 1e3)
    import spark.implicits._
    val sntDf = snt.toDF("path_tt").groupBy("path_tt").agg(count(lit(1)).as("cnt"))
    val sql =
      s"""SELECT ROUND(path_tt, 3) AS path_tt, COUNT(*) AS cnt
         |FROM (${SparkSPQ.oracleSql("trav", path, iv, None)}) AS sub
         |GROUP BY 1""".stripMargin
    Oracle.assertEquivalent(sntDf, sql, "trav" -> ds.toDF())
  }

  test("Oracle.assertEquivalent passes on a matching aggregation") {
    val trav = ds.toDF().limit(500).cache()
    val sparkRes = trav.groupBy("edge").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(sparkRes,
      "SELECT edge, COUNT(*) AS cnt FROM trav GROUP BY edge",
      "trav" -> trav)
  }

  test("Oracle.assertEquivalent catches a wrong result") {
    val trav = ds.toDF().limit(100).cache()
    val wrong = trav.groupBy("edge").agg((count(lit(1)) + 1).as("cnt"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT edge, COUNT(*) AS cnt FROM trav GROUP BY edge",
        "trav" -> trav)
    }
  }

  test("empty result for a path that is never strictly traversed") {
    assert(sparkTT(Vector(1, 1), FixedInterval(0, Long.MaxValue / 2), None).isEmpty)
  }
}
