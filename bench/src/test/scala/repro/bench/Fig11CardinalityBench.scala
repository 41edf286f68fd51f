package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Fig 11 — cardinality estimator: q-error per mode (11a), query runtime per
  * partition size × estimator variant (11b), and the estimator's effect on
  * sMAPE (11c).
  *
  * Shape assertions: ISA-only has the worst q-error and the Acc modes the
  * best; using an estimator never blows up the runtime at coarse partitions;
  * the accuracy effect of estimator-driven splitting is minuscule.
  */
class Fig11CardinalityBench extends SparkSpec {

  private lazy val res = Experiments.fig11(BenchData.bundle)

  test("emit the Fig 11 tables") {
    BenchData.emit("fig11_cardinality", Experiments.fig11Lines(res))
    assert(res.qErrors.size == 5)
  }

  private def qe(mode: String): Double = res.qErrors.find(_._1 == mode).get._2

  test("Fig 11a shape: ISA-only has the worst q-error") {
    assert(qe("ISA") >= qe("CSS-Acc"), s"ISA=${qe("ISA")} CSS-Acc=${qe("CSS-Acc")}")
    assert(qe("ISA") >= qe("BT-Acc"))
    assert(qe("ISA") >= qe("CSS-Fast"))
  }

  test("Fig 11a shape: Acc (histogram) modes beat Fast (uniform) modes") {
    assert(qe("CSS-Acc") <= qe("CSS-Fast") + 0.05)
    assert(qe("BT-Acc") <= qe("BT-Fast") + 0.05)
  }

  test("Fig 11a shape: CSS modes estimate no worse than their BT counterparts") {
    // Exact fixed-frame counts (CSS) vs the Eq. 3 span approximation (BT).
    assert(qe("CSS-Acc") <= qe("BT-Acc") + 0.01)
    assert(qe("CSS-Fast") <= qe("BT-Fast") + 0.01)
  }

  test("Fig 11a shape: every mode improves on pure guessing by a bounded factor") {
    assert(res.qErrors.forall(_._2 >= 1.0))
    assert(qe("CSS-Acc") < qe("ISA"))
  }

  test("Fig 11b shape: estimators do not slow down coarse-partition queries") {
    def ms(p: String, v: String) = res.runtime.find(r => r._1 == p && r._2 == v).get._3
    // At FULL, using CSS-Fast must not cost more than ~2× the plain index
    // (the paper reports ~50% savings; we accept anything non-pathological).
    assert(ms("FULL", "CSS-Fast") < ms("FULL", "CSS") * 2.0,
           s"CSS=${ms("FULL", "CSS")} CSS-Fast=${ms("FULL", "CSS-Fast")}")
  }

  test("Fig 11c shape: estimator choice barely moves sMAPE") {
    val byPartition = res.accuracy.groupBy(_._1)
    for ((p, rows) <- byPartition) {
      val vals = rows.map(_._3)
      assert(vals.max - vals.min < 5.0, s"partition=$p spread=${vals.max - vals.min}")
    }
  }
}
