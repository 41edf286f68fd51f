package repro.temporal

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class TemporalSpec extends AnyFunSuite {

  private def naiveLowerBound(keys: Array[Int], k: Long): Int = {
    var i = 0
    while (i < keys.length && keys(i) < k) i += 1
    i
  }

  private def randomKeys(rnd: Random, n: Int): Array[Int] =
    Array.fill(n)(rnd.nextInt(10000)).sorted

  for ((name, mk) <- Seq[(String, Array[Int] => TemporalSearch)](
         ("CSS-tree", ks => new CSSTree(ks)),
         ("B+-tree", ks => new BPlusTree(ks)))) {

    test(s"$name lowerBound matches naive scan on random sorted arrays") {
      val rnd = new Random(31)
      for (n <- Seq(0, 1, 5, 15, 16, 17, 100, 255, 256, 257, 5000)) {
        val keys = randomKeys(rnd, n)
        val t = mk(keys)
        for (_ <- 0 until 200) {
          val probe = rnd.nextLong(11000) - 500
          assert(t.lowerBound(probe) == naiveLowerBound(keys, probe), s"n=$n probe=$probe")
        }
        // Boundary probes: every key itself, key±1.
        for (k <- keys.take(50)) {
          assert(t.lowerBound(k) == naiveLowerBound(keys, k))
          assert(t.lowerBound(k + 1) == naiveLowerBound(keys, k + 1))
          assert(t.lowerBound(k - 1) == naiveLowerBound(keys, k - 1))
        }
      }
    }

    test(s"$name lowerBound handles duplicate keys (first occurrence)") {
      val keys = Array[Int](5, 5, 5, 7, 7, 9, 9, 9, 9, 9)
      val t = mk(keys)
      assert(t.lowerBound(5) == 0)
      assert(t.lowerBound(6) == 3)
      assert(t.lowerBound(7) == 3)
      assert(t.lowerBound(9) == 5)
      assert(t.lowerBound(10) == 10)
      assert(t.lowerBound(0) == 0)
    }

    test(s"$name range count via two lowerBounds is exact") {
      val rnd = new Random(32)
      val keys = randomKeys(rnd, 1000)
      val t = mk(keys)
      for (_ <- 0 until 100) {
        val a = rnd.nextLong(10000); val b = a + rnd.nextLong(3000)
        val expect = keys.count(k => k >= a && k < b)
        assert(t.lowerBound(b) - t.lowerBound(a) == expect)
      }
    }
  }

  test("B+-tree memory exceeds CSS-tree memory on the same keys") {
    val keys = Array.tabulate(10000)(identity)
    assert(new BPlusTree(keys).memoryBytes > new CSSTree(keys).memoryBytes)
  }

  test("TemporalRecords.timeOrder sorts by timestamp and keeps columns aligned") {
    // Leaves in build order: (t, isa, d, tt, a, seq, w).
    val t = Array(30, 10, 20)
    val order = TemporalRecords.timeOrder(t)
    val r = new TemporalRecords(order.map(t), order.map(Array(2, 1, 3)), order.map(Array(102, 100, 101)),
      order.map(Array(3.0, 1.0, 2.0)), order.map(Array(9.0, 1.0, 4.0)),
      order.map(Array[Short](1, 0, 2)), order.map(Array[Short](0, 0, 1)))
    assert(order.toSeq == Seq(1, 2, 0))
    assert(r.t.toSeq == Seq(10, 20, 30))
    assert(r.d.toSeq == Seq(100, 101, 102))
    assert(r.isa.toSeq == Seq(1, 3, 2))
    assert(r.tt.toSeq == Seq(1.0, 2.0, 3.0))
    assert(r.a.toSeq == Seq(1.0, 4.0, 9.0))
    assert(r.seq.toSeq == Seq(0, 2, 1))
    assert(r.w.toSeq == Seq(0, 1, 0))
    assert(r.minKey == 10 && r.maxKey == 30)
  }

  test("TemporalRecords.timeOrder keeps equal entry times in build order") {
    val t = Array(7, 3, 7, 0, 3, 7, Int.MaxValue, 0)
    assert(TemporalRecords.timeOrder(t).toSeq == Seq(3, 7, 1, 4, 0, 2, 5, 6))
    val rnd = new Random(33)
    val many = Array.fill(5000)(rnd.nextInt(50))
    assert(TemporalRecords.timeOrder(many).toSeq == many.indices.sortBy(many(_)))
  }

  test("empty records have sane min/max sentinels") {
    assert(TemporalRecords.timeOrder(Array.empty).isEmpty)
    val r = new TemporalRecords(Array.empty, Array.empty, Array.empty, Array.empty, Array.empty,
      Array.empty, Array.empty)
    assert(r.size == 0 && r.minKey > r.maxKey)
  }
}
