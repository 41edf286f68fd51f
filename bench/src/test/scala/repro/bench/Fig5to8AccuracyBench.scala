package repro.bench

import repro.SparkSpec
import repro.eval.{EvalRunner, Experiments, Workload}

/** Figs 5–8 — accuracy grid: sMAPE, weighted error, log-likelihood and
  * average sub-path length per (query type, π, σ, β).
  *
  * Asserts the paper's qualitative shape: fine regular partitioning (π1) is
  * the worst histogram method, coarse partitionings are best; σ_R beats σ_L;
  * the speed-limit-only estimate is far worse than any indexed method;
  * SPQ-only yields the longest sub-paths.
  */
class Fig5to8AccuracyBench extends SparkSpec {

  private lazy val grid = BenchData.grid

  test("emit the Figs 5-8 grid") {
    BenchData.emit("fig5to9_grid",
      Seq(Experiments.referenceLine(BenchData.bundle), Experiments.header) ++ grid.map(Experiments.fmt))
    assert(grid.nonEmpty)
  }

  test("Fig 5a shape: coarse partitionings beat fine regular partitioning on sMAPE") {
    def avg(pi: String) =
      grid.filter(r => r.queryType == "Temporal" && r.pi == pi && r.sigma == "sigmaR")
          .map(_.smape).sum / BenchData.Betas.size
    assert(avg("piZ") < avg("pi1"), s"piZ=${avg("piZ")} pi1=${avg("pi1")}")
    assert(avg("piN") < avg("pi1"), s"piN=${avg("piN")} pi1=${avg("pi1")}")
  }

  test("Fig 5 shape: speed-limit-only error dwarfs every indexed method") {
    val (slSmape, _, _, _) = EvalRunner.referenceNumbers(BenchData.bundle.index, BenchData.bundle.queries)
    val worst = grid.map(_.smape).max
    assert(slSmape > worst, s"speed-limit=$slSmape worst-indexed=$worst")
  }

  test("Fig 5/6 shape: σR is at least as accurate as σL on average (temporal)") {
    def avg(s: String) = {
      val rs = grid.filter(r => r.queryType == "Temporal" && r.sigma == s)
      rs.map(_.smape).sum / rs.size
    }
    assert(avg("sigmaR") <= avg("sigmaL") + 1.0, s"R=${avg("sigmaR")} L=${avg("sigmaL")}")
  }

  test("Fig 7 shape: SPQ-only sub-paths are the longest; π1 sub-paths are 1") {
    def avgLen(qt: String, pi: String) = {
      val rs = grid.filter(r => r.queryType == qt && r.pi == pi && r.sigma == "sigmaR")
      rs.map(_.avgSubPathLen).sum / rs.size
    }
    assert(math.abs(avgLen("Temporal", "pi1") - 1.0) < 1e-6)
    assert(avgLen("SPQ-Only", "piN") > avgLen("Temporal", "piN"))
  }

  test("Fig 7 shape: sub-path length shrinks as β grows (πN, temporal)") {
    val rs = grid.filter(r => r.queryType == "Temporal" && r.pi == "piN" && r.sigma == "sigmaR")
                 .sortBy(_.beta)
    assert(rs.head.avgSubPathLen >= rs.last.avgSubPathLen,
           s"beta=10→${rs.head.avgSubPathLen} beta=50→${rs.last.avgSubPathLen}")
  }

  test("Fig 8 shape: log-likelihoods are finite and better than the uniform floor") {
    val floor = math.log(0.01 * 10.0 / EvalRunner.TCap) // (1-γ)·h/T — pure-uniform mass
    assert(grid.forall(r => !r.logL.isNaN && r.logL > floor))
  }

  test("User-filter accuracy is comparable to temporal accuracy (π_MDM vs π_C)") {
    val user = grid.filter(r => r.queryType == "User" && r.pi == "piMDM" && r.sigma == "sigmaR")
    val temp = grid.filter(r => r.queryType == "Temporal" && r.pi == "piC" && r.sigma == "sigmaR")
    val du = user.map(_.smape).sum / user.size
    val dt = temp.map(_.smape).sum / temp.size
    assert(math.abs(du - dt) < 10.0, s"user=$du temporal=$dt")
  }
}
