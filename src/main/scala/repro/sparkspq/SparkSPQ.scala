package repro.sparkspq

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{FixedInterval, PeriodicInterval, TimeInterval}
import repro.core.TimeInterval.DaySec
import repro.traj.Traversal

/** DataFrame-based strict-path-query engine — the distributed counterpart of
  * the in-memory SNT-index, expressed entirely in Catalyst-optimisable
  * operations (repro hint: "DataFrame-based spatial index with range queries
  * over partitioned trajectory data").
  *
  * Store layout:
  *   - `trav`: the traversal Dataset repartitioned by edge id and sorted by
  *     (edge, t) within partitions — the "spatial index"; an SPQ's temporal
  *     predicate becomes a range filter over one edge's partition;
  *   - `trajs`: one row per trajectory with its full edge path and cumulative
  *     travel-time array, so the path-match test is a single `slice(...) = P`
  *     and the path travel time is two `element_at` lookups (the DataFrame
  *     analogue of the extended leaves' `a` field, §4.1.3).
  */
final class SparkSPQ(val spark: SparkSession, val trav: DataFrame, val trajs: DataFrame) {
  import SparkSPQ._

  /** Travel times of all trajectories that strictly traverse `path` with the
    * first segment entered inside `interval` (and, optionally, driven by
    * `user`). Columns: trajid, t (entry time), path_tt.
    */
  def travelTimes(path: Seq[Int], interval: TimeInterval, user: Option[Int]): DataFrame = {
    require(path.nonEmpty)
    val l = path.length
    var first = trav.filter(col("edge") === path.head && temporalPredicate(col("t"), interval))
    for (u <- user) first = first.filter(col("userId") === u)
    first
      .join(trajs, "trajId")
      .filter(slice(col("path"), col("seq") + 1, lit(l)) === typedLit(path.toArray))
      .select(
        col("trajId").as("trajid"),
        col("t"),
        (element_at(col("cum"), col("seq") + l) - element_at(col("cum"), col("seq") + 1)
          + element_at(col("tts"), col("seq") + 1)).as("path_tt"),
      )
  }
}

object SparkSPQ {

  /** Wrap-aware time predicate as a Catalyst expression. */
  def temporalPredicate(t: org.apache.spark.sql.Column, interval: TimeInterval): org.apache.spark.sql.Column =
    interval match {
      case FixedInterval(ts, te) => t >= ts && t < te
      case p: PeriodicInterval =>
        if (p.sizeSec >= DaySec) lit(true)
        else pmod(t - p.ts, lit(DaySec)) < p.sizeSec
    }

  def build(spark: SparkSession, traversals: Dataset[Traversal]): SparkSPQ = {
    val trav = traversals.toDF()
      .repartition(col("edge"))
      .sortWithinPartitions("edge", "t")
      .cache()
    val trajs = traversals.toDF()
      .groupBy(col("trajId"))
      .agg(
        first(col("userId")).as("userId"),
        array_sort(collect_list(struct(col("seq"), col("edge"), col("tt")))).as("s"),
      )
      .select(
        col("trajId"),
        col("userId"),
        expr("transform(s, r -> r.edge)").as("path"),
        expr("transform(s, r -> r.tt)").as("tts"),
      )
      .withColumn("cum", expr(
        // cumulative sums a_i = Σ_{j≤i} tt_j via a running aggregate
        "transform(sequence(1, size(tts)), i -> aggregate(slice(tts, 1, i), cast(0.0 as double), (acc, x) -> acc + x))"))
      .cache()
    new SparkSPQ(spark, trav, trajs)
  }

  /** DuckDB SQL for the same SPQ as an l-way self-join on (trajid, seq+i,
    * edge=p_i) — a third, independent formulation used as the correctness
    * oracle. The oracle loads every column as VARCHAR, hence the casts.
    */
  def oracleSql(table: String, path: Seq[Int], interval: TimeInterval, user: Option[Int]): String = {
    val l = path.length
    val joins = (1 until l).map { i =>
      s"JOIN $table t$i ON t$i.trajId = t0.trajId AND CAST(t$i.seq AS BIGINT) = CAST(t0.seq AS BIGINT) + $i AND CAST(t$i.edge AS BIGINT) = ${path(i)}"
    }.mkString("\n  ")
    val timePred = interval match {
      case FixedInterval(ts, te) => s"CAST(t0.t AS BIGINT) >= $ts AND CAST(t0.t AS BIGINT) < $te"
      case p: PeriodicInterval =>
        if (p.sizeSec >= DaySec) "TRUE"
        else s"((CAST(t0.t AS BIGINT) - (${p.ts})) % $DaySec + $DaySec) % $DaySec < ${p.sizeSec}"
    }
    val userPred = user.map(u => s" AND CAST(t0.userId AS BIGINT) = $u").getOrElse("")
    val ttSum = (0 until l).map(i => s"CAST(t$i.tt AS DOUBLE)").mkString(" + ")
    s"""SELECT t0.trajId AS trajid, CAST(t0.t AS BIGINT) AS t, $ttSum AS path_tt
FROM $table t0
  $joins
WHERE CAST(t0.edge AS BIGINT) = ${path.head} AND $timePred$userPred"""
  }
}
