package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}

import repro.SparkSpec
import repro.eval.{ConfigResult, Experiments}

/** Shared bench dataset and result sink. All bench suites run in one forked
  * JVM (`Test / parallelExecution := false`), so the bundle (the one dataset
  * of Figs 5–11) and the Figs 5–9 grid are computed once and reused.
  */
object BenchData {

  /** Bench scale: ~1M traversals, 300 queries — the SF≈0.1 regime. */
  lazy val bundle: Experiments.Bundle =
    Experiments.build(SparkSpec.shared, Experiments.BenchScale)

  val Betas: Seq[Int] = Seq(10, 20, 30, 40, 50)

  /** The full Figs 5–9 grid, evaluated once, after a JIT warm-up pass so the
    * per-query timings of the first configurations aren't compilation noise.
    */
  lazy val grid: Seq[ConfigResult] = {
    import repro.core.{SigmaL, SigmaR, ZonePartitioner, RegularPartitioner}
    import repro.eval.{EvalRunner, Workload}
    for (sigma <- Seq(SigmaR, SigmaL); pi <- Seq(ZonePartitioner, RegularPartitioner(1)))
      EvalRunner.evaluate(bundle.spark, bundle.bIndex, bundle.bStore,
                          bundle.queries, Workload.Temporal, pi, sigma, 20)
    Experiments.accuracyGrid(bundle, Betas)
  }

  /** Where the tables go: the build sets `bench.out` to the checkout's
    * `bench_results/`.
    */
  private val outDir = Paths.get(sys.props.getOrElse("bench.out",
    sys.error("bench.out is not set; run the suites with `sbt bench/test`")))

  /** Print rows and persist them for EXPERIMENTS.md. */
  def emit(name: String, lines: Seq[String]): Unit = {
    Files.createDirectories(outDir)
    val body = lines.mkString("", "\n", "\n")
    print(body)
    Files.write(outDir.resolve(s"$name.txt"), body.getBytes("UTF-8"),
                StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }
}
