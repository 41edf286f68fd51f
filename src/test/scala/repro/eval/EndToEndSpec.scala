package repro.eval

import repro.SparkSpec
import repro.core._

/** Integration: the full pipeline at test scale — dataset, index, histogram
  * store, Spark-parallelised evaluation, reference numbers, q-errors.
  */
class EndToEndSpec extends SparkSpec {

  private lazy val bundle = Experiments.build(spark, Experiments.TestScale)

  test("bundle builds and samples a query set from the second data half") {
    assert(bundle.queries.nonEmpty)
    val sortedT0 = bundle.trajs.map(_.t0).sorted
    val median = sortedT0(sortedT0.length / 2)
    assert(bundle.queries.forall(_.t0 >= median))
  }

  test("temporal-filter evaluation produces finite metrics and decent accuracy") {
    val r = EvalRunner.evaluate(spark, bundle.bIndex, bundle.bStore, bundle.queries,
                                Workload.Temporal, ZonePartitioner, SigmaR, beta = 10)
    assert(r.smape > 0 && r.smape < 60, s"sMAPE=${r.smape}")
    assert(r.weightedError > 0 && r.weightedError < 100)
    assert(!r.logL.isNaN && r.logL < 0)
    assert(r.avgSubPathLen >= 1)
    assert(r.msPerQuery > 0)
  }

  test("user-filter evaluation runs with π_MDM") {
    val r = EvalRunner.evaluate(spark, bundle.bIndex, bundle.bStore, bundle.queries,
                                Workload.UserQ, MdmPartitioner, SigmaR, beta = 10)
    assert(r.smape > 0 && r.smape < 60)
  }

  test("SPQ-only evaluation runs with π_N and yields long sub-paths") {
    val rN = EvalRunner.evaluate(spark, bundle.bIndex, bundle.bStore, bundle.queries,
                                 Workload.SpqOnly, NonePartitioner, SigmaR, beta = 10)
    val r1 = EvalRunner.evaluate(spark, bundle.bIndex, bundle.bStore, bundle.queries,
                                 Workload.SpqOnly, RegularPartitioner(1), SigmaR, beta = 10)
    assert(rN.avgSubPathLen > r1.avgSubPathLen)
    assert(math.abs(r1.avgSubPathLen - 1.0) < 1e-9)
  }

  test("speed-limit reference error exceeds the trajectory-based error") {
    val (slSmape, allSmape, slW, allW) = EvalRunner.referenceNumbers(bundle.index, bundle.queries)
    val r = EvalRunner.evaluate(spark, bundle.bIndex, bundle.bStore, bundle.queries,
                                Workload.Temporal, ZonePartitioner, SigmaR, beta = 20)
    assert(slSmape > allSmape, s"speed-limit=$slSmape all-trajectories=$allSmape")
    assert(slSmape > r.smape, s"speed-limit=$slSmape vs indexed=${r.smape}")
    assert(slW > 0 && allW > 0)
  }

  test("estimator-gated evaluation completes and reduces index calls") {
    val base = EvalRunner.evaluate(spark, bundle.bIndex, bundle.bStore, bundle.queries,
                                   Workload.Temporal, ZonePartitioner, SigmaR, beta = 20)
    val gated = EvalRunner.evaluate(spark, bundle.bIndex, bundle.bStore, bundle.queries,
                                    Workload.Temporal, ZonePartitioner, SigmaR, beta = 20,
                                    estimatorMode = Some(CssAcc))
    assert(gated.avgIndexCalls <= base.avgIndexCalls + 1e-9)
    assert(math.abs(gated.smape - base.smape) < 15.0) // quality effect is small
  }

  test("q-errors: Acc modes estimate no worse than ISA-only") {
    val alphaMin = EvalRunner.DefaultA.head
    val qs = bundle.queries.take(15)
    val isa = EvalRunner.qErrorOfMode(bundle.index, bundle.store, IsaOnly, qs,
                                      Workload.Temporal, alphaMin)
    val acc = EvalRunner.qErrorOfMode(bundle.index, bundle.store, CssAcc, qs,
                                      Workload.Temporal, alphaMin)
    assert(isa >= 1.0 && acc >= 1.0)
    assert(acc <= isa, s"ISA=$isa CSS-Acc=$acc")
  }

  test("fig10 and fig11 run over the bundle and leave its broadcasts usable") {
    val fig10 = Experiments.fig10(bundle)
    assert(fig10._1.size == 6 && fig10._2.size == 15)
    assert(Experiments.fig10Lines(fig10).size == 1 + 6 + 1 + 15)
    val fig11 = Experiments.fig11(bundle, 15)
    assert(fig11.qErrors.size == 5 && fig11.runtime.size == 30 && fig11.accuracy.size == 25)
    assert(Experiments.fig11Lines(fig11).size == 3 + 5 + 30 + 25)
    // The Figs 5–9 grid reuses the bundle's broadcasts after Fig 11 in the
    // same JVM; a destroyed broadcast fails this evaluation.
    val r = EvalRunner.evaluate(spark, bundle.bIndex, bundle.bStore, bundle.queries,
                                Workload.Temporal, ZonePartitioner, SigmaR, beta = 10)
    assert(r.smape > 0)
  }

  test("gridConfigs enumerates the paper's configuration grid") {
    val cfgs = Experiments.gridConfigs(Seq(10, 20))
    // (7 + 4 + 4) π-choices × 2 σ × 2 β
    assert(cfgs.size == 15 * 2 * 2)
    assert(cfgs.count(_._1 == Workload.UserQ) == 4 * 2 * 2)
  }

  test("formatted rows render for a ConfigResult") {
    val r = ConfigResult("Temporal", "piZ", "sigmaR", 20, 12.3, 18.0, -3.5, 4.2, 1.5, 3.0, 0.0, 0.01)
    assert(Experiments.fmt(r).contains("piZ"))
    assert(Experiments.header.nonEmpty)
  }
}
