package repro.perfbench

import repro.fm.{SuffixArrays, WaveletTree}
import repro.perfbench.Main.{Args, Data, Metric, Result}
import repro.traj.Traj

/** The traced run: per-layer time and work of every query, from spans that
  * [[Mirror]] records around each call into the program.
  *
  * Each timed round makes one pass over the queries through the real
  * `TripQueryProcessor.run` (untraced, the base of every share) and then one
  * through the mirror; separate passes keep either from finding the other's
  * data for the same query in the caches. Times are reported as self ms per query, both as the
  * mean over all queries and over the slowest 1 % of queries (by `run` time,
  * suffix `.tail`). Counts are per query and exact for a given seed.
  */
object Traced {

  private val BuildReps = 3
  private val SpotChecks = 48

  def run(args: Args): Result = {
    val (d, build) = timedBuilds(args)
    val spqs = Main.queries(args, d)._2
    val proc = Main.processor(args, d)
    val mirror = new Mirror(proc)
    val pi = args.workload.pi
    Main.warmUp(args, d, proc)
    val g = Main.gate(proc, pi, spqs)
    val ok = g.ok
    val n = ok.length

    // First mirror pass: exact work counts, fidelity, and the sub-queries the
    // index answered (candidates for the naive spot-check).
    val counts = new Trace
    val answered = collection.mutable.ArrayBuffer.empty[Answered]
    val mismatched = collection.mutable.BitSet.empty
    for (i <- ok) {
      val r = mirror.run(spqs(i), pi, counts, answered += _)
      if (!Checks.sameResult(r, g.results(i))) mismatched += i
    }
    val step = math.max(1, answered.length / SpotChecks)
    val picked = answered.indices.by(step).take(SpotChecks).map(answered)
    val spotFailures = picked.flatMap(a => Checks.againstNaive(d.trajs, a))
    spotFailures.take(5).foreach(p => System.err.println(s"spot-check failed: $p"))

    // The gate and first mirror pass warmed both paths; time whole passes
    // until the run's seconds are spent.
    val queries = ok.map(spqs)
    val runNs = new Array[Long](n)
    val mirrorNs = new Array[Long](n)
    val spans = Array.fill(n)(new Trace)
    var passes = 0
    val end = System.nanoTime() + args.seconds * 1000000000L
    while (passes == 0 || System.nanoTime() < end) {
      for (j <- 0 until n) {
        val t0 = System.nanoTime()
        val r = proc.run(queries(j), pi)
        runNs(j) += System.nanoTime() - t0
        if (!Checks.sameResult(r, g.results(ok(j)))) mismatched += ok(j)
      }
      for (j <- 0 until n) {
        val t0 = System.nanoTime()
        val m = mirror.run(queries(j), pi, spans(j), _ => ())
        mirrorNs(j) += System.nanoTime() - t0
        if (!Checks.sameResult(m, g.results(ok(j)))) mismatched += ok(j)
      }
      passes += 1
    }
    Main.provenance(args, d, spqs.length)
    println(s"# traced: passes=$passes spot_checks=${picked.length} answered_sub_queries=${answered.length}")

    val slowest = runNs.indices.sortBy(j => -runNs(j)).take(math.max(1, math.ceil(n * 0.01).toInt))
    def meanMs(js: Iterable[Int], ns: Int => Long): Double =
      js.iterator.map(ns(_).toDouble).sum / js.size / passes / 1e6
    def timed(name: String, ns: Int => Long): Seq[Metric] = Seq(
      Metric(name, meanMs(0 until n, ns), "ms"),
      Metric(s"$name.tail", meanMs(slowest, ns), "ms"))
    def perQuery(v: Long): Double = v.toDouble / n
    val runTotal = runNs.sum.toDouble
    val spanTotal = spans.iterator.map(_.spanNs).sum.toDouble

    val metrics =
      timed("fm.path_ranges_ms", spans(_).pathRangesNs) ++ Seq(
        Metric("fm.path_ranges_calls", perQuery(counts.pathRangesCalls), "count"),
        Metric("fm.symbols", perQuery(counts.fmSymbols), "count"),
      ) ++ timed("sntindex.build_map_ms", spans(_).buildMapNs) ++ Seq(
        Metric("sntindex.build_map_out", perQuery(counts.buildMapOut), "count"),
        Metric("sntindex.first_edge_records", perQuery(counts.firstEdgeRecords), "count"),
        Metric("sntindex.build_map_yield", counts.buildMapOut.toDouble / counts.firstEdgeRecords, "ratio"),
      ) ++ timed("sntindex.probe_map_ms", spans(_).probeMapNs) ++ Seq(
        Metric("sntindex.probe_map_out", perQuery(counts.probeMapOut), "count"),
        Metric("sntindex.last_edge_records", perQuery(counts.lastEdgeRecords), "count"),
      ) ++ timed("core.partition_ms", spans(_).partitionNs) ++
      timed("core.split_ms", spans(_).splitNs) ++
      timed("core.shift_ms", spans(_).shiftNs) ++
      timed("core.self_ms", j => runNs(j) - spans(j).spanNs) ++ Seq(
        Metric("core.dispatches", perQuery(counts.dispatches), "count"),
        Metric("core.accepted", perQuery(counts.accepted), "count"),
        Metric("core.accept_ratio", counts.accepted.toDouble / counts.dispatches, "ratio"),
        Metric("core.relax_widen", perQuery(counts.relaxWiden), "count"),
        Metric("core.relax_split", perQuery(counts.relaxSplit), "count"),
        Metric("core.relax_drop_user", perQuery(counts.relaxDropUser), "count"),
        Metric("core.relax_fallback", perQuery(counts.relaxFallback), "count"),
      ) ++ timed("hist.create_ms", spans(_).histCreateNs) ++
      timed("hist.convolve_ms", spans(_).convolveNs) ++ Seq(
        Metric("hist.buckets", perQuery(counts.buckets), "count"),
      ) ++ build ++ Seq(
        Metric("mem.c_mib", Main.mib(d.index.memC), "MiB"),
        Metric("mem.wt_mib", Main.mib(d.index.memWT), "MiB"),
        Metric("mem.user_mib", Main.mib(d.index.memUser), "MiB"),
        Metric("mem.forest_mib", Main.mib(d.index.memForest), "MiB"),
        Metric("trace.run_ms", runTotal / n / passes / 1e6, "ms"),
        Metric("trace.mismatch", mismatched.size.toDouble, "count"),
        Metric("trace.coverage", spanTotal / runTotal, "ratio"),
        Metric("trace.overhead_pct", 100.0 * (mirrorNs.sum - runTotal) / runTotal, "%"),
        Metric("trace.spot_checks", picked.length.toDouble, "count"),
      )
    Result(spqs.length, g.failures + spotFailures.length, metrics)
  }

  /** Set-up repeated `BuildReps` times in this process; each phase reports
    * its median. The FM phases are re-run on the same partition texts that
    * `SNTIndex.build` indexes; `build.forest_s` is the rest of the build.
    */
  private def timedBuilds(args: Args): (Data, Seq[Metric]) = {
    var last: Data = null
    val rows = (0 until BuildReps).map { _ =>
      last = null // let the previous data set go before building the next
      val d = Main.setup(args)
      last = d
      val texts = partitionTexts(d.trajs, args.workload.partitionDays)
      require(texts.map(_.length).toSeq == d.index.partitions.map(_.n).toSeq,
              "partition texts differ from the index's FM-index sizes")
      val sigma = d.net.numEdges + 1
      var t0 = System.nanoTime()
      val sas = texts.map(SuffixArrays.build)
      val saS = (System.nanoTime() - t0) / 1e9
      t0 = System.nanoTime()
      texts.indices.foreach { w =>
        SuffixArrays.inverse(sas(w))
        WaveletTree.build(SuffixArrays.bwt(texts(w), sas(w)), sigma)
      }
      val bwtS = (System.nanoTime() - t0) / 1e9
      Array(d.netS, d.trajS, saS, bwtS, d.buildS - saS - bwtS)
    }
    def median(k: Int): Double = rows.map(_(k)).sorted.apply(BuildReps / 2)
    val names = Seq("network.generate_s", "traj.generate_s", "build.sa_s", "build.bwt_wt_s", "build.forest_s")
    (last, names.indices.map(k => Metric(names(k), median(k), "s")))
  }

  /** The per-partition trajectory strings `SNTIndex.build` builds its FM-indexes
    * over: trajectories assigned to partitions by start time, each followed
    * by the `$` separator 0.
    */
  private def partitionTexts(trajs: Array[Traj], partitionDays: Option[Int]): Array[Array[Int]] = {
    val tmin = trajs.iterator.map(_.t0).min
    val raw = partitionDays match {
      case Some(days) => trajs.map(t => ((t.t0 - tmin) / (86400L * days)).toInt)
      case None       => Array.fill(trajs.length)(0)
    }
    val dense = raw.distinct.sorted.zipWithIndex.toMap
    val texts = Array.fill(dense.size)(Array.newBuilder[Int])
    for (i <- trajs.indices) { texts(dense(raw(i))) ++= trajs(i).edges; texts(dense(raw(i))) += 0 }
    texts.map(_.result())
  }
}
