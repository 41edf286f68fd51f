package repro.eval

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.hist.HistogramStore
import repro.network.{NetworkGen, RoadNetwork}
import repro.traj.{Traj, TrajectoryGen, Traversal}

/** End-to-end experiment driver shared by the spark-submit jobs and the
  * bench suites. Each `figXX` method reproduces the number grid behind one
  * evaluation figure of the paper and returns printable rows.
  */
object Experiments {

  /** Dataset + index bundle reused across configurations and figures. */
  final case class Bundle(
      spark: SparkSession,
      net: RoadNetwork,
      trajs: Array[Traj],
      traversals: Dataset[Traversal],
      index: SNTIndex,
      store: HistogramStore,
      queries: Array[Traj],
      bIndex: Broadcast[SNTIndex],
      bStore: Broadcast[HistogramStore],
  )

  final case class Scale(
      gridW: Int = 30, gridH: Int = 30,
      numTraj: Int = 40000, numDrivers: Int = 400, numRoutes: Int = 600,
      days: Int = 365, numQueries: Int = 300, seed: Long = 7L,
  )

  /** Bench scale (1 090 427 traversals) and test scale (~40 K traversals). */
  val BenchScale: Scale = Scale(numTraj = 60000, numRoutes = 500)
  val TestScale: Scale = Scale(gridW = 12, gridH = 12, numTraj = 2000, numDrivers = 40,
                               numRoutes = 80, days = 120, numQueries = 40)

  /** The one dataset of a scale that every figure runs over: the network,
    * the trajectories (in memory and as the traversal Dataset), the FULL CSS
    * index, the 600 s Histogram Store and the query sample.
    */
  def build(spark: SparkSession, s: Scale): Bundle = {
    val net = NetworkGen.generate(s.gridW, s.gridH, s.seed)
    val cfg = TrajectoryGen.Config(s.numTraj, s.numDrivers, s.numRoutes, s.days, s.seed)
    val trajs = TrajectoryGen.collectTrajs(net, cfg)
    // Cached: the Histogram Stores of Figs 10–11 all aggregate it.
    val traversals = TrajectoryGen.traversals(spark, net, cfg).cache()
    val index = SNTIndex.build(net, trajs, CssForest, None)
    val store = HistogramStore.build(spark, traversals, bucketSec = 600)
    val queries = Workload.sampleQueries(trajs, s.numQueries, s.seed + 1)
    Bundle(spark, net, trajs, traversals, index, store, queries,
           spark.sparkContext.broadcast(index), spark.sparkContext.broadcast(store))
  }

  // ---- Figs 5–9: accuracy/efficiency grid --------------------------------

  val TemporalPis: Seq[Partitioner] =
    Seq(CategoryPartitioner, ZonePartitioner, ZoneCategoryPartitioner, NonePartitioner,
        RegularPartitioner(1), RegularPartitioner(2), RegularPartitioner(3))
  val UserPis: Seq[Partitioner] =
    Seq(CategoryPartitioner, ZonePartitioner, ZoneCategoryPartitioner, MdmPartitioner)
  val SpqOnlyPis: Seq[Partitioner] =
    Seq(CategoryPartitioner, ZonePartitioner, ZoneCategoryPartitioner, NonePartitioner)

  def gridConfigs(betas: Seq[Int]): Seq[(Workload.QueryType, Partitioner, SplitMethod, Int)] =
    (for {
      (qt, pis) <- Seq((Workload.Temporal, TemporalPis), (Workload.UserQ, UserPis),
                       (Workload.SpqOnly, SpqOnlyPis))
      pi <- pis
      sigma <- Seq(SigmaR, SigmaL)
      beta <- betas
    } yield (qt, pi, sigma, beta))

  /** Runs the full grid; one ConfigResult per point of Figs 5–9. */
  def accuracyGrid(b: Bundle, betas: Seq[Int]): Seq[ConfigResult] =
    gridConfigs(betas).map { case (qt, pi, sigma, beta) =>
      EvalRunner.evaluate(b.spark, b.bIndex, b.bStore, b.queries, qt, pi, sigma, beta)
    }

  /** The §6.1 reference numbers of the bundle's query set, as one line. */
  def referenceLine(b: Bundle): String = {
    val (slS, allS, slW, allW) = EvalRunner.referenceNumbers(b.index, b.queries)
    f"reference: speed-limit-only sMAPE=$slS%.2f wErr=$slW%.2f; " +
      f"all-trajectories-per-segment sMAPE=$allS%.2f wErr=$allW%.2f"
  }

  def header: String =
    f"${"type"}%-9s ${"pi"}%-6s ${"sigma"}%-7s ${"beta"}%4s ${"sMAPE"}%8s ${"wErr"}%8s ${"logL"}%8s ${"subLen"}%7s ${"ms/q"}%8s ${"calls"}%6s ${"relaxed"}%7s"

  def fmt(r: ConfigResult): String =
    f"${r.queryType}%-9s ${r.pi}%-6s ${r.sigma}%-7s ${r.beta}%4d ${r.smape}%8.2f ${r.weightedError}%8.2f ${r.logL}%8.3f ${r.avgSubPathLen}%7.2f ${r.msPerQuery}%8.3f ${r.avgIndexCalls}%6.1f ${r.relaxedShare}%7.3f"

  // ---- Fig 10: temporal partitioning -------------------------------------

  final case class PartitionRow(label: String, tree: String, partitions: Int,
                                cMiB: Double, wtMiB: Double, userMiB: Double, forestMiB: Double,
                                setupSec: Double)

  def fig10(b: Bundle): (Seq[PartitionRow], Seq[(String, Int, Double)]) = {
    def mib(x: Long): Double = x.toDouble / (1024 * 1024)

    val variants: Seq[(String, TreeType, Option[Int])] =
      Seq(("7", CssForest, Some(7)), ("30", CssForest, Some(30)), ("90", CssForest, Some(90)),
          ("365", CssForest, Some(365)), ("FULL", CssForest, None), ("BT", BtForest, None))
    val idxRows = variants.map { case (label, tree, pd) =>
      val t0 = System.nanoTime()
      val idx = SNTIndex.build(b.net, b.trajs, tree, pd)
      val setup = (System.nanoTime() - t0) / 1e9
      PartitionRow(label, if (tree == CssForest) "CSS" else "BT", idx.partitions.length,
                   mib(idx.memC), mib(idx.memWT), mib(idx.memUser), mib(idx.memForest), setup)
    }
    // Histogram-store memory for bucket sizes h ∈ {1, 5, 10} minutes at each
    // partition granularity (per-partition per-edge histograms).
    val histRows = for {
      (label, pd) <- Seq(("7", Some(7)), ("30", Some(30)), ("90", Some(90)),
                         ("365", Some(365)), ("FULL", None))
      h <- Seq(60, 300, 600)
    } yield {
      val st = HistogramStore.build(b.spark, b.traversals, h, pd)
      (label, h, mib(st.memoryBytes))
    }
    (idxRows, histRows)
  }

  /** The Fig 10 tables as printed lines. */
  def fig10Lines(res: (Seq[PartitionRow], Seq[(String, Int, Double)])): Seq[String] = {
    val (idxRows, histRows) = res
    Seq(f"${"part"}%-5s ${"tree"}%-4s ${"W"}%4s ${"C_MiB"}%10s ${"WT_MiB"}%10s ${"user_MiB"}%9s ${"forest_MiB"}%11s ${"setup_s"}%8s") ++
      idxRows.map(r => f"${r.label}%-5s ${r.tree}%-4s ${r.partitions}%4d ${r.cMiB}%10.4f ${r.wtMiB}%10.4f ${r.userMiB}%9.4f ${r.forestMiB}%11.4f ${r.setupSec}%8.2f") ++
      Seq("histogram store (partition, bucket_s, MiB):") ++
      histRows.map { case (l, h, m) => f"  $l%-5s $h%5d $m%10.4f" }
  }

  // ---- Fig 11: cardinality estimator -------------------------------------

  final case class Fig11Result(
      qErrors: Seq[(String, Double)],                       // 11a: mode → avg q-error
      runtime: Seq[(String, String, Double)],               // 11b: partition label, variant, ms/query
      accuracy: Seq[(String, String, Double)],              // 11c: partition label, mode, sMAPE
  )

  /** Fig 11 over the bundle's dataset. 11a, the JIT warm-up and the FULL CSS
    * row of 11b/11c use the bundle's FULL index, store and broadcasts, which
    * stay alive for later figures; the other indexes and stores of 11b/11c
    * are built here and their broadcasts destroyed.
    */
  def fig11(b: Bundle, qErrQueries: Int = 200): Fig11Result = {
    val spark = b.spark
    val alphaMin = EvalRunner.DefaultA.head

    // 11a: q-error per mode on the FULL CSS index.
    // The workload mixes periodic and fixed time frames (§5.2), which is
    // what separates the CSS modes (exact range counts) from the BT modes
    // (Eq. 3) on the fixed-frame part.
    val qeQueries = b.queries.take(qErrQueries)
    val modes = Seq(IsaOnly, BtFast, CssFast, BtAcc, CssAcc)
    val qErrors = modes.map { m =>
      val qTod = EvalRunner.qErrorOfMode(b.index, b.store, m, qeQueries,
                                         Workload.Temporal, alphaMin)
      val qFix = EvalRunner.qErrorOfMode(b.index, b.store, m, qeQueries,
                                         Workload.SpqOnly, alphaMin)
      m.name -> (qTod + qFix) / 2
    }

    // JIT warm-up so the first runtime rows aren't compilation noise.
    EvalRunner.evaluate(spark, b.bIndex, b.bStore, b.queries, Workload.Temporal,
                        ZonePartitioner, SigmaR, 20)

    // 11b + 11c: π_Z, σ_R, β = 20 across partition sizes and variants.
    val partSizes = Seq(("7", Some(7)), ("30", Some(30)), ("90", Some(90)),
                        ("365", Some(365)), ("FULL", None))
    val runtime = collection.mutable.ArrayBuffer.empty[(String, String, Double)]
    val accuracy = collection.mutable.ArrayBuffer.empty[(String, String, Double)]
    for ((label, pd) <- partSizes) {
      val bStore = if (pd.isEmpty) b.bStore
                   else spark.sparkContext.broadcast(HistogramStore.build(spark, b.traversals, 600, pd))
      for (tree <- Seq(CssForest, BtForest)) {
        val bIdx = if (pd.isEmpty && tree == CssForest) b.bIndex
                   else spark.sparkContext.broadcast(SNTIndex.build(b.net, b.trajs, tree, pd))
        val treeName = if (tree == CssForest) "CSS" else "BT"
        val variantModes: Seq[(String, Option[EstimatorMode])] =
          if (tree == CssForest)
            Seq((treeName, None), ("CSS-Fast", Some(CssFast)), ("CSS-Acc", Some(CssAcc)))
          else
            Seq((treeName, None), ("BT-Fast", Some(BtFast)), ("BT-Acc", Some(BtAcc)))
        for ((vName, mode) <- variantModes) {
          val r = EvalRunner.evaluate(spark, bIdx, bStore, b.queries, Workload.Temporal,
                                      ZonePartitioner, SigmaR, 20, estimatorMode = mode)
          runtime += ((label, vName, r.msPerQuery))
        }
        if (tree == CssForest) {
          for (m <- Seq(IsaOnly, CssFast, CssAcc, BtFast, BtAcc)) {
            val r = EvalRunner.evaluate(spark, bIdx, bStore, b.queries, Workload.Temporal,
                                        ZonePartitioner, SigmaR, 20, estimatorMode = Some(m))
            accuracy += ((label, m.name, r.smape))
          }
        }
        if (bIdx ne b.bIndex) bIdx.destroy()
      }
      if (bStore ne b.bStore) bStore.destroy()
    }
    Fig11Result(qErrors, runtime.toSeq, accuracy.toSeq)
  }

  /** The Fig 11 tables as printed lines. */
  def fig11Lines(res: Fig11Result): Seq[String] =
    Seq("q-error (mode, avg):") ++
      res.qErrors.map { case (m, q) => f"  $m%-9s $q%10.3f" } ++
      Seq("runtime ms/query (partition, variant, ms):") ++
      res.runtime.map { case (p, v, ms) => f"  $p%-5s $v%-9s $ms%8.3f" } ++
      Seq("sMAPE (partition, mode, sMAPE):") ++
      res.accuracy.map { case (p, m, s) => f"  $p%-5s $m%-9s $s%8.2f" }
}
