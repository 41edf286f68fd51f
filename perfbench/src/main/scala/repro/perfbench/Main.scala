package repro.perfbench

import java.util.concurrent.CountDownLatch
import java.util.concurrent.atomic.AtomicLong

import repro.core._
import repro.eval.{EvalRunner, Experiments, Metrics, Workload}
import repro.network.{NetworkGen, RoadNetwork}
import repro.traj.{Traj, TrajectoryGen}

/** Single-process tripQuery benchmark (Procedure 6 over the extended
  * SNT-index), without Spark.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *             [--scale bench|test] [--setup-only]
  *
  * `--trace 0` prints the end-to-end metrics: single-client closed-loop
  * latency, set-up time, index size and the two answer-quality metrics, and
  * reports `nproc`-client closed-loop throughput in a `#` line. `--trace 1` replays every query
  * through [[Mirror]] and prints the per-layer metrics. `--setup-only` times
  * one set-up in this (fresh) process and prints only `setup_s`.
  * The last line of standard output is always one JSON object.
  */
object Main {

  /** One benchmark workload: a query type, π, σ and the index layout. */
  final case class Bench(name: String, qt: Workload.QueryType, pi: Partitioner,
                         sigma: SplitMethod, partitionDays: Option[Int], queries: Int)

  // Shared by every workload (§5.2 defaults): β = 20, ladder A = ⟨15…120⟩ min,
  // αmin = A.head, bucket width h = 10 s, no cardinality estimator.
  val Beta = 20
  val A: Vector[Long] = EvalRunner.DefaultA
  val BucketH = 10.0

  // Query counts are as large as a run's time allows, so that the latency
  // percentiles vary little from seed to seed; user queries cost ~12 ms each.
  val Workloads: Seq[Bench] = Seq(
    Bench("temporal", Workload.Temporal, ZonePartitioner, SigmaR, None, 4000),
    Bench("user", Workload.UserQ, ZonePartitioner, SigmaR, None, 1000),
    Bench("spq-partitioned", Workload.SpqOnly, NonePartitioner, SigmaL, Some(7), 6000),
  )

  final case class Args(workload: Bench, seed: Long, seconds: Int, trace: Boolean,
                        scale: Experiments.Scale, setupOnly: Boolean)

  def parse(argv: Array[String]): Args = {
    val kv = collection.mutable.Map.empty[String, String]
    var setupOnly = false
    var i = 0
    while (i < argv.length) {
      argv(i) match {
        case "--setup-only" => setupOnly = true; i += 1
        case k if k.startsWith("--") && i + 1 < argv.length => kv(k.drop(2)) = argv(i + 1); i += 2
        case k => throw new IllegalArgumentException(s"unexpected argument $k")
      }
    }
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    val w = Workloads.find(_.name == need("workload")).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${need("workload")}; " +
        s"known: ${Workloads.map(_.name).mkString(", ")}"))
    val scale = kv.getOrElse("scale", "bench") match {
      case "bench" => Experiments.BenchScale
      case "test"  => Experiments.TestScale
      case s       => throw new IllegalArgumentException(s"unknown scale $s")
    }
    Args(w, need("seed").toLong, need("seconds").toInt, need("trace") == "1", scale, setupOnly)
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val out =
      if (args.setupOnly) Result(1, 0, Seq(Metric("setup_s", setup(args).setupS, "s")))
      else if (args.trace) Traced.run(args)
      else endToEnd(args)
    println(out.json)
    System.out.flush()
    sys.exit(if (out.failed == 0) 0 else 1)
  }

  // ---- data set -----------------------------------------------------------

  final case class Data(net: RoadNetwork, trajs: Array[Traj], index: SNTIndex,
                        netS: Double, trajS: Double, buildS: Double) {
    def setupS: Double = netS + trajS + buildS
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Network generation, trajectory generation and `SNTIndex.build`. */
  def setup(args: Args): Data = {
    val s = args.scale
    var t0 = System.nanoTime()
    val net = NetworkGen.generate(s.gridW, s.gridH, s.seed)
    val netS = secondsSince(t0)
    t0 = System.nanoTime()
    val trajs = TrajectoryGen.collectTrajs(
      net, TrajectoryGen.Config(s.numTraj, s.numDrivers, s.numRoutes, s.days, s.seed))
    val trajS = secondsSince(t0)
    t0 = System.nanoTime()
    val index = SNTIndex.build(net, trajs, CssForest, args.workload.partitionDays)
    Data(net, trajs, index, netS, trajS, secondsSince(t0))
  }

  /** The workload's queries, sampled from the trajectories with the run's seed. */
  def queries(args: Args, d: Data): (Array[Traj], Array[Spq]) = {
    val trs = Workload.sampleQueries(d.trajs, args.workload.queries, args.seed)
    (trs, trs.map(tr => Workload.baseSpq(tr, args.workload.qt, A.head, Beta)))
  }

  def processor(args: Args, d: Data): TripQueryProcessor =
    new TripQueryProcessor(d.index, new Splitter(A, args.workload.sigma, d.index), BucketH, None)

  def mib(bytes: Long): Double = bytes.toDouble / (1024 * 1024)

  def indexMib(ix: SNTIndex): Double = mib(ix.memC + ix.memWT + ix.memUser + ix.memForest)

  /** Prints the data set's provenance. Plain loops on purpose: the generic
    * collection methods (`sum`, `count`, ...) are the ones `run` calls, and
    * feeding them other element types before the timed windows changed the
    * code the JIT compiled for `run` (p95 up to 3x slower on `temporal`).
    */
  def provenance(args: Args, d: Data, nQueries: Int): Unit = {
    var traversals = 0L
    var i = 0
    while (i < d.trajs.length) { traversals += d.trajs(i).length; i += 1 }
    var edgesWithData = 0
    i = 0
    while (i < d.index.records.length) { if (d.index.records(i) != null) edgesWithData += 1; i += 1 }
    println(s"# dataset: trajectories=${d.trajs.length} traversals=$traversals " +
      s"edges=${d.net.numEdges} edges_with_data=$edgesWithData W=${d.index.partitions.length} " +
      s"workload=${args.workload.name} queries=$nQueries seed=${args.seed} " +
      s"heap_mib=${Runtime.getRuntime.maxMemory >> 20} threads=${Runtime.getRuntime.availableProcessors}")
  }

  // ---- correctness gate ---------------------------------------------------

  /** Outcome of running every query once, outside any timed window. */
  final case class Gate(ok: Array[Int], results: Array[TripResult], failures: Int)

  def gate(proc: TripQueryProcessor, pi: Partitioner, spqs: Array[Spq]): Gate = {
    val ok = Array.newBuilder[Int]
    val results = new Array[TripResult](spqs.length)
    var failures = 0
    for (i <- spqs.indices) {
      val problem =
        try {
          val r = proc.run(spqs(i), pi)
          results(i) = r
          Checks.tripInvariants(spqs(i), r)
        } catch { case e: Exception => Some(s"threw $e") }
      problem match {
        case None => ok += i
        case Some(p) =>
          failures += 1
          if (failures <= 5) System.err.println(s"query $i failed: $p")
      }
    }
    Gate(ok.result(), results, failures)
  }

  // ---- end-to-end run -----------------------------------------------------

  /** JIT warm-up on a fixed query set before the seed's queries run, so the
    * code the JIT compiles does not depend on which queries the seed drew;
    * with the gate pass after it, compilations have about 10 s to settle.
    */
  private val WarmSeconds = 6.0
  private val WarmupQuerySeed = 20190326L

  def warmUp(args: Args, d: Data, proc: TripQueryProcessor): Unit = {
    val qs = Workload.sampleQueries(d.trajs, args.workload.queries, WarmupQuerySeed)
      .map(tr => Workload.baseSpq(tr, args.workload.qt, A.head, Beta))
    closedLoop(proc, args.workload.pi, qs, 1, WarmSeconds)
  }

  /** Share of `--seconds` timing single-client latency; the rest times throughput. */
  private val LatencyShare = 0.8
  /** Each query's latency is its fastest of at least this many passes. */
  private val MinPasses = 3
  /** Throughput is the median of this many equal windows. */
  private val ThroughputWindows = 3

  @volatile private var sink = 0L

  def endToEnd(args: Args): Result = {
    val d = setup(args)
    val (trs, spqs) = queries(args, d)
    val proc = processor(args, d)
    val pi = args.workload.pi
    warmUp(args, d, proc)
    val g = gate(proc, pi, spqs)
    val ok = g.ok.map(spqs)

    val total = args.seconds.toDouble
    val clients = Runtime.getRuntime.availableProcessors
    val (passes, latFailed) = latencies(proc, pi, ok, total * LatencyShare)
    val tps = new Array[Throughput](ThroughputWindows)
    var w = 0
    while (w < ThroughputWindows) {
      tps(w) = closedLoop(proc, pi, ok, clients, total * (1 - LatencyShare) / ThroughputWindows)
      w += 1
    }

    // Answer quality and provenance only after the timed windows, so that no
    // benchmark-only code shapes what the JIT compiles for `run` (see provenance).
    val passed = g.ok.map(i => (trs(i), g.results(i)))
    val smape = passed.map { case (tr, r) => Metrics.smapeTerm(r.meanEstimate, tr.totalDur) }.sum / passed.length
    val nll = -passed.map { case (tr, r) =>
      Metrics.logLTerm(r, tr.totalDur, EvalRunner.Gamma, 0.0, EvalRunner.TCap) }.sum / passed.length
    provenance(args, d, spqs.length)
    val lat = fastest(passes)
    java.util.Arrays.sort(lat)
    val qps = tps.map(_.qps).sorted.apply(ThroughputWindows / 2)
    val passP50 = passes.map { ms => val c = ms.clone(); java.util.Arrays.sort(c); percentile(c, 0.5) }
    // p99 is printed but not a metric: its spread across seeds was 0.23–0.34 of
    // its median (the 1 % tail is a few dozen distinct queries, and on
    // spq-partitioned it falls on the cliff to the slow σ_L path).
    println(s"# latency: queries=${lat.length} passes=${passes.length} " +
      f"p99_ms=${percentile(lat, 0.99)}%.4f pass_p50_ms=${passP50.map(v => f"$v%.4f").mkString(",")}")
    // Throughput is printed but not a metric: the host's speed drifts by 20 %
    // over minutes, and `nproc` busy clients feel it more than one client
    // whose fastest pass per query is kept (quartile spread over ten seeds
    // 0.23 on spq-partitioned, against 0.14 for latency_p50_ms).
    println(f"# throughput: clients=$clients qps=$qps%.1f windows_qps=${tps.map(t => f"${t.qps}%.0f").mkString(",")} " +
      s"queries=${tps.map(_.done).sum}")
    // Every execution counts as attempted: the gate pass and both timed windows.
    Result(spqs.length + passes.length * ok.length + tps.map(_.done).sum,
      g.failures + latFailed + tps.map(_.failed).sum, Seq(
      Metric("latency_p50_ms", percentile(lat, 0.50), "ms"),
      Metric("latency_p95_ms", percentile(lat, 0.95), "ms"),
      Metric("setup_s", d.setupS, "s"),
      Metric("index_mib", indexMib(d.index), "MiB"),
      Metric("smape_pct", smape, "%"),
      Metric("nll", nll, "nats"),
    ))
  }

  /** Each query's fastest latency over the passes. A pass that ran while the
    * shared host was busy, or a collection that paused one query, does not
    * count against the query as long as one pass ran it undisturbed.
    */
  def fastest(passes: Array[Array[Double]]): Array[Double] = {
    val best = passes(0).clone()
    for (ms <- passes; i <- best.indices) best(i) = math.min(best(i), ms(i))
    best
  }

  private def rankIndex(n: Int, p: Double): Int = math.max(0, math.ceil(p * n).toInt - 1)

  /** Nearest-rank percentile of a sorted sample. */
  def percentile(sorted: Array[Double], p: Double): Double = sorted(rankIndex(sorted.length, p))

  /** One client, closed loop: whole passes through the queries, so each
    * query weighs the same, until `seconds` have passed and at least
    * `MinPasses` passes ran. Returns each pass's per-query latencies in ms.
    */
  def latencies(proc: TripQueryProcessor, pi: Partitioner, qs: Array[Spq],
                seconds: Double): (Array[Array[Double]], Int) = {
    val passes = Array.newBuilder[Array[Double]]
    var failed = 0
    var n = 0
    val end = System.nanoTime() + (seconds * 1e9).toLong
    while (n < MinPasses || System.nanoTime() < end) {
      val ms = new Array[Double](qs.length)
      failed += pass(proc, pi, qs, ms)
      passes += ms
      n += 1
    }
    (passes.result(), failed)
  }

  /** One timed pass over the queries; returns the number that threw. */
  private def pass(proc: TripQueryProcessor, pi: Partitioner, qs: Array[Spq], ms: Array[Double]): Int = {
    var failed = 0
    var acc = 0L
    var i = 0
    while (i < qs.length) {
      val t0 = System.nanoTime()
      try acc += proc.run(qs(i), pi).sub.length
      catch { case _: Exception => failed += 1 }
      ms(i) = (System.nanoTime() - t0) / 1e6
      i += 1
    }
    sink += acc
    failed
  }

  final case class Throughput(done: Int, failed: Int, qps: Double)

  /** `clients` threads sharing one processor, each in a closed loop over the
    * queries (from its own offset) for `seconds`.
    */
  def closedLoop(proc: TripQueryProcessor, pi: Partitioner, qs: Array[Spq], clients: Int,
                 seconds: Double): Throughput = {
    val done = new AtomicLong
    val failed = new AtomicLong
    val start = new CountDownLatch(1)
    @volatile var end = 0L
    val threads = (0 until clients).map { c =>
      new Thread(() => {
        start.await()
        var i = c * qs.length / clients
        var n = 0L
        var acc = 0L
        while (System.nanoTime() < end) {
          try acc += proc.run(qs(i % qs.length), pi).sub.length
          catch { case _: Exception => failed.incrementAndGet() }
          i += 1
          n += 1
        }
        done.addAndGet(n)
        sink += acc
      })
    }
    threads.foreach(_.start())
    val t0 = System.nanoTime()
    end = t0 + (seconds * 1e9).toLong
    start.countDown()
    threads.foreach(_.join())
    val elapsed = secondsSince(t0)
    Throughput(done.get.toInt, failed.get.toInt, done.get / elapsed)
  }

  // ---- output -------------------------------------------------------------

  final case class Metric(name: String, value: Double, unit: String)

  final case class Result(attempted: Int, failed: Int, metrics: Seq[Metric]) {
    def json: String = {
      val ms = metrics.map { m =>
        require(!m.value.isNaN && !m.value.isInfinite, s"${m.name} is ${m.value}")
        s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
      }
      s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
    }
  }
}
