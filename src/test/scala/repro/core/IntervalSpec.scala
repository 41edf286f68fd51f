package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** Time-interval semantics: fixed vs periodic, widening, wrap-around. */
class IntervalSpec extends AnyFunSuite {

  test("fixed interval is a half-open range") {
    val i = FixedInterval(10, 20)
    assert(!i.contains(9) && i.contains(10) && i.contains(19) && !i.contains(20))
    assert(i.sizeSec == 10)
    assert(!i.isPeriodic)
  }

  test("periodic interval repeats daily") {
    val p = PeriodicInterval(3600, 7200)
    for (day <- 0 to 3) {
      assert(p.contains(day * 86400L + 3600))
      assert(p.contains(day * 86400L + 7199))
      assert(!p.contains(day * 86400L + 7200))
      assert(!p.contains(day * 86400L + 3599))
    }
  }

  test("periodic interval anchored at an absolute timestamp behaves as its time-of-day") {
    val anchor = 5L * 86400 + 30000
    val p = PeriodicInterval(anchor - 450, anchor + 450)
    assert(p.contains(anchor))
    assert(p.contains(anchor - 86400))
    assert(p.contains(anchor + 86400 * 10))
    assert(!p.contains(anchor + 451))
  }

  test("a periodic interval of a full day contains everything") {
    val p = PeriodicInterval(0, 86400)
    val rnd = new Random(71)
    (0 until 100).foreach(_ => assert(p.contains(rnd.nextLong(1L << 40))))
  }

  test("widen keeps the centre and reaches the target size") {
    val p = PeriodicInterval(1000, 1900)
    for (target <- Seq(1800L, 2700L, 3600L, 7200L)) {
      val w = p.widen(target)
      assert(w.sizeSec == target)
      assert(w.ts + w.sizeSec / 2 == p.ts + p.sizeSec / 2)
    }
  }

  test("widening preserves membership of the original window") {
    val p = PeriodicInterval(1000, 1900)
    val w = p.widen(3600)
    val rnd = new Random(72)
    (0 until 200).foreach { _ =>
      val t = rnd.nextLong(86400L * 30)
      if (p.contains(t)) assert(w.contains(t))
    }
  }

  test("shrink is a no-op when already at or below the target") {
    val p = PeriodicInterval(0, 900)
    assert(p.shrink(900) == p)
    assert(p.shrink(1800) == p)
  }

  test("Spq rejects empty paths") {
    intercept[IllegalArgumentException] {
      Spq(Vector.empty, FixedInterval(0, 1), None, None, 0)
    }
  }

  test("Spq.length is the path length") {
    assert(Spq(Vector(1, 2, 3), FixedInterval(0, 1), None, None, 0).length == 3)
  }

  test("Spq rejects an interval that starts after it ends, but keeps an empty one legal") {
    for (iv <- Seq(FixedInterval(20, 10), PeriodicInterval(7200, 3600))) {
      val e = intercept[IllegalArgumentException](Spq(Vector(1), iv, None, Some(1), 0))
      assert(e.getMessage.contains("starts after it ends"))
    }
    // SPQ-Only's [0, t0) is empty for a trajectory that starts at time 0.
    assert(Spq(Vector(1), FixedInterval(0, 0), None, Some(1), 0).interval.sizeSec == 0)
  }

  test("Spq rejects a cardinality requirement β ≤ 0") {
    for (b <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException](Spq(Vector(1), FixedInterval(0, 10), None, Some(b), 0))
      assert(e.getMessage.contains(s"β must be positive, got $b"))
    }
    assert(Spq(Vector(1), FixedInterval(0, 10), None, None, 0).beta.isEmpty)
  }
}
