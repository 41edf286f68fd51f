package repro.temporal

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class TemporalSpec extends AnyFunSuite {

  private def naiveLowerBound(keys: Array[Long], k: Long): Int = {
    var i = 0
    while (i < keys.length && keys(i) < k) i += 1
    i
  }

  private def randomKeys(rnd: Random, n: Int): Array[Long] =
    Array.fill(n)(rnd.nextLong(10000)).sorted

  for ((name, mk) <- Seq[(String, Array[Long] => TemporalSearch)](
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
      val keys = Array[Long](5, 5, 5, 7, 7, 9, 9, 9, 9, 9)
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

  test("CSS-tree supports exact counts; B+-tree declares it does not") {
    assert(new CSSTree(Array(1L, 2L, 3L)).supportsExactCount)
    assert(!new BPlusTree(Array(1L, 2L, 3L)).supportsExactCount)
  }

  test("B+-tree memory exceeds CSS-tree memory on the same keys") {
    val keys = Array.tabulate(10000)(_.toLong)
    assert(new BPlusTree(keys).memoryBytes > new CSSTree(keys).memoryBytes)
  }

  test("TemporalRecords.fromRows sorts by timestamp and keeps columns aligned") {
    val rows = Array(
      TemporalRecords.Row(30, 2, 102, 3.0, 9.0, 1, 0),
      TemporalRecords.Row(10, 1, 100, 1.0, 1.0, 0, 0),
      TemporalRecords.Row(20, 3, 101, 2.0, 4.0, 2, 1),
    )
    val r = TemporalRecords.fromRows(rows)
    assert(r.t.toSeq == Seq(10L, 20L, 30L))
    assert(r.d.toSeq == Seq(100L, 101L, 102L))
    assert(r.isa.toSeq == Seq(1, 3, 2))
    assert(r.tt.toSeq == Seq(1.0, 2.0, 3.0))
    assert(r.a.toSeq == Seq(1.0, 4.0, 9.0))
    assert(r.seq.toSeq == Seq(0, 2, 1))
    assert(r.w.toSeq == Seq(0, 1, 0))
    assert(r.minKey == 10 && r.maxKey == 30)
  }

  test("empty records have sane min/max sentinels") {
    val r = TemporalRecords.fromRows(Array.empty)
    assert(r.size == 0 && r.minKey > r.maxKey)
  }
}
