package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Experiments

/** Shared session builder for the spark-submit entrypoints. */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Scale from CLI: `--test` selects the small scale, default is bench. */
  def scale(args: Array[String]): Experiments.Scale =
    if (args.contains("--test")) Experiments.TestScale else Experiments.BenchScale
}

/** Figs 5–8 — sMAPE, weighted error, log-likelihood, and sub-path length per
  * (query type, π, σ, β). `spark-submit --class repro.jobs.Fig5to8Accuracy`.
  */
object Fig5to8Accuracy {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig5to8")
    val b = Experiments.build(spark, Jobs.scale(args))
    println(Experiments.referenceLine(b))
    println(Experiments.header)
    Experiments.accuracyGrid(b, Seq(10, 20, 30, 40, 50)).foreach(r => println(Experiments.fmt(r)))
    spark.stop()
  }
}

/** Fig 9 — processing time (ms/query); same grid as Figs 5–8, the timing
  * column of the accuracy runs.
  */
object Fig9Efficiency {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig9")
    val b = Experiments.build(spark, Jobs.scale(args))
    println(Experiments.header)
    Experiments.accuracyGrid(b, Seq(10, 30, 50)).foreach(r => println(Experiments.fmt(r)))
    spark.stop()
  }
}

/** Fig 10 — temporal partitioning: index component memory, histogram-store
  * memory per bucket width, and setup time.
  */
object Fig10Partitioning {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig10")
    val b = Experiments.build(spark, Jobs.scale(args))
    Experiments.fig10Lines(Experiments.fig10(b)).foreach(println)
    spark.stop()
  }
}

/** Fig 11 — cardinality estimator: q-error per mode, runtime and sMAPE per
  * partition size × estimator variant.
  */
object Fig11Cardinality {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig11")
    val b = Experiments.build(spark, Jobs.scale(args))
    Experiments.fig11Lines(Experiments.fig11(b)).foreach(println)
    spark.stop()
  }
}
