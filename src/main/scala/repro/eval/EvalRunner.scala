package repro.eval

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.hist.HistogramStore
import repro.traj.Traj

/** Aggregated metrics of one configuration over the query set (one point of
  * Figs 5–9 / 11).
  */
final case class ConfigResult(
    queryType: String,
    pi: String,
    sigma: String,
    beta: Int,
    smape: Double,
    weightedError: Double,
    logL: Double,
    avgSubPathLen: Double,
    msPerQuery: Double,
    avgIndexCalls: Double,
    avgEstimatorSkips: Double,
    relaxedShare: Double,
)

/** Runs one (query type, π, σ, β) configuration over the query set, with the
  * per-query evaluation parallelised over Spark executors (the index and the
  * query set are broadcast once per dataset).
  */
object EvalRunner {

  val DefaultA: Vector[Long] = Vector(15L, 30L, 45L, 60L, 90L, 120L).map(_ * 60L)
  val Gamma = 0.99
  val TCap = 7200.0 // log-likelihood uniform-smoothing domain [0, TCap)

  final case class PerQuery(smape: Double, wError: Double, logL: Double, subLen: Double,
                            ms: Double, calls: Int, skips: Int, relaxed: Int, subs: Int)

  def evaluate(
      spark: SparkSession,
      bIndex: Broadcast[SNTIndex],
      bStore: Broadcast[HistogramStore],
      queries: Array[Traj],
      qt: Workload.QueryType,
      pi: Partitioner,
      sigma: SplitMethod,
      beta: Int,
      estimatorMode: Option[EstimatorMode] = None,
  ): ConfigResult = {
    val sc: SparkContext = spark.sparkContext
    val nPart = math.max(1, math.min(queries.length, sc.defaultParallelism * 2))
    val rows = sc.parallelize(queries.toIndexedSeq, nPart).map { tr =>
      val index = bIndex.value
      val splitter = new Splitter(DefaultA, sigma, index)
      val est = estimatorMode.map(m => new CardinalityEstimator(index, bStore.value, m))
      val proc = new TripQueryProcessor(index, splitter, 10.0, est)
      val q = Workload.baseSpq(tr, qt, DefaultA.head, beta)
      val t0 = System.nanoTime()
      val res = proc.run(q, pi)
      val ms = (System.nanoTime() - t0) / 1e6
      val act = tr.totalDur
      PerQuery(
        Metrics.smapeTerm(res.meanEstimate, act),
        Metrics.weightedErrorTerm(index.net, tr, res.sub),
        Metrics.logLTerm(res, act, Gamma, 0.0, TCap),
        res.avgSubPathLength,
        ms,
        res.indexCalls,
        res.estimatorSkips,
        res.sub.count(_.relaxed),
        res.sub.size,
      )
    }.collect()
    val n = rows.length.toDouble
    // Runtime: median per query — a JVM-hosted micro-measurement is heavily
    // right-skewed by JIT/GC pauses, and the paper's relative timings are
    // what we reproduce.
    val sortedMs = rows.map(_.ms).sorted
    val medianMs = sortedMs(sortedMs.length / 2)
    ConfigResult(
      qt.name, pi.name, sigma.name, beta,
      rows.map(_.smape).sum / n,
      rows.map(_.wError).sum / n,
      rows.map(_.logL).sum / n,
      rows.map(_.subLen).sum / n,
      medianMs,
      rows.map(_.calls.toDouble).sum / n,
      rows.map(_.skips.toDouble).sum / n,
      rows.map(_.relaxed.toDouble).sum / rows.map(_.subs.toDouble).sum,
    )
  }

  /** The paper's two §6.1 reference numbers: sMAPE/weighted error when (a)
    * only speed limits are used and (b) all available trajectories of each
    * segment are used (segment-level means, no temporal predicate).
    */
  def referenceNumbers(index: SNTIndex, queries: Array[Traj]): (Double, Double, Double, Double) = {
    val net = index.net
    // Per-edge mean travel time over all records.
    def edgeMean(e: Int): Double = {
      val r = index.records(e)
      if (r == null || r.size == 0) net.estimateTT(e)
      else { var s = 0.0; var i = 0; while (i < r.size) { s += r.tt(i); i += 1 }; s / r.size }
    }
    // One single-segment sub-result per edge whose sample is the edge's
    // estimate, so both weighted errors are the §5.3.2 term.
    def perEdge(tr: Traj, est: Int => Double): Vector[SubResult] =
      tr.edges.indices.map(i => SubResult(i, i + 1, Array(est(tr.edges(i))), relaxed = false)).toVector
    var slS = 0.0; var allS = 0.0; var slW = 0.0; var allW = 0.0
    for (tr <- queries) {
      val act = tr.totalDur
      slS += Metrics.smapeTerm(tr.edges.map(net.estimateTT).sum, act)
      allS += Metrics.smapeTerm(tr.edges.map(edgeMean).sum, act)
      slW += Metrics.weightedErrorTerm(net, tr, perEdge(tr, net.estimateTT))
      allW += Metrics.weightedErrorTerm(net, tr, perEdge(tr, edgeMean))
    }
    val n = queries.length.toDouble
    (slS / n, allS / n, slW / n, allW / n)
  }

  /** Fig 11a: average q-error of an estimator mode over the initial π_Z
    * sub-queries of the workload, against the true cardinalities (unlimited
    * β).
    */
  def qErrorOfMode(index: SNTIndex, store: HistogramStore, mode: EstimatorMode,
                   queries: Array[Traj], qt: Workload.QueryType, alphaMin: Long): Double = {
    val est = new CardinalityEstimator(index, store, mode)
    var sum = 0.0
    var cnt = 0
    for (tr <- queries) {
      val q = Workload.baseSpq(tr, qt, alphaMin, beta = 1)
      for (sq <- ZonePartitioner(q, index.net)) {
        val betaHat = est.estimate(sq)
        val n = index.matchCountCapped(sq.path, sq.interval, sq.user, Int.MaxValue).toLong
        sum += Metrics.qError(betaHat, n)
        cnt += 1
      }
    }
    sum / cnt
  }
}
