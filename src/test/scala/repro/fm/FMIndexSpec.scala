package repro.fm

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class FMIndexSpec extends AnyFunSuite {

  private def paperT: Array[Int] =
    "ABE ACDE ABF ABE ".map(c => if (c == ' ') 0 else c - 'A' + 1).toArray

  /** Occurrences of `p`: the size of its ISA range (the c_P of §4.4). */
  private def count(fm: FMIndex, p: IndexedSeq[Int]): Int = {
    val (st, ed) = fm.pathRange(p)
    ed - st
  }

  private def naiveCount(t: Array[Int], p: Seq[Int]): Int =
    (0 to t.length - p.length).count(i => p.indices.forall(k => t(i + k) == p(k)))

  test("paper example: R(⟨A⟩) = [4, 8)") {
    val (fm, _) = FMIndex.buildWithIsa(paperT, 7)
    assert(fm.pathRange(Vector(1)) == ((4, 8)))
  }

  test("paper example: R(⟨A,B⟩) = [4, 7)") {
    val (fm, _) = FMIndex.buildWithIsa(paperT, 7)
    assert(fm.pathRange(Vector(1, 2)) == ((4, 7)))
  }

  test("paper example: counts of every single segment") {
    val (fm, _) = FMIndex.buildWithIsa(paperT, 7)
    assert(count(fm, Vector(1)) == 4) // A: in all four trajectories
    assert(count(fm, Vector(2)) == 3) // B: tr0, tr2, tr3
    assert(count(fm, Vector(3)) == 1) // C
    assert(count(fm, Vector(4)) == 1) // D
    assert(count(fm, Vector(5)) == 3) // E: tr0, tr1, tr3
    assert(count(fm, Vector(6)) == 1) // F
  }

  test("paper example: path ⟨A,B,E⟩ occurs twice, ⟨A,C,D,E⟩ once, ⟨B,F⟩ once") {
    val (fm, _) = FMIndex.buildWithIsa(paperT, 7)
    assert(count(fm, Vector(1, 2, 5)) == 2)
    assert(count(fm, Vector(1, 3, 4, 5)) == 1)
    assert(count(fm, Vector(2, 6)) == 1)
  }

  test("non-existent paths return the empty range (0,0)") {
    val (fm, _) = FMIndex.buildWithIsa(paperT, 7)
    assert(fm.pathRange(Vector(5, 1)) == ((0, 0))) // E then A never happens
    assert(count(fm, Vector(6, 6)) == 0)
  }

  test("paths crossing a $ separator never match") {
    val (fm, _) = FMIndex.buildWithIsa(paperT, 7)
    // tr0 ends with E, tr1 starts with A — ⟨E,A⟩ only exists across $.
    assert(count(fm, Vector(5, 1)) == 0)
  }

  test("pathRange counts match naive substring counts on random texts") {
    val rnd = new Random(21)
    for (_ <- 0 until 40) {
      val sigma = 2 + rnd.nextInt(8)
      // Like the trajectory string, the text must end with the $ separator.
      val t = Array.fill(200)(rnd.nextInt(sigma)) :+ 0
      val (fm, _) = FMIndex.buildWithIsa(t, sigma)
      for (_ <- 0 until 50) {
        val plen = 1 + rnd.nextInt(4)
        val p = Vector.fill(plen)(1 + rnd.nextInt(sigma - 1))
        assert(count(fm, p) == naiveCount(t, p), s"t=${t.take(30).toSeq}… p=$p")
      }
    }
  }

  test("ISA range contents: suffixes in [st, ed) start with the path") {
    val rnd = new Random(22)
    val t = Array.fill(300)(rnd.nextInt(5)) :+ 0
    val sa = SuffixArrays.build(t)
    val (fm, isa) = FMIndex.buildWithIsa(t, 5)
    var done = 0
    while (done < 50) {
      val pos = rnd.nextInt(t.length - 2)
      // Paths never contain the $ separator.
      if (t(pos) != 0 && t(pos + 1) != 0) {
        done += 1
        val p = Vector(t(pos), t(pos + 1))
        val (st, ed) = fm.pathRange(p)
        // The suffix starting at pos must be inside the range.
        assert(isa(pos) >= st && isa(pos) < ed)
        // And every suffix in the range starts with p.
        (st until ed).foreach { j =>
          val sfx = sa(j)
          assert(t(sfx) == p(0) && t(sfx + 1) == p(1))
        }
      }
    }
  }

  test("empty path yields empty range") {
    val (fm, _) = FMIndex.buildWithIsa(paperT, 7)
    assert(fm.pathRange(Vector.empty) == ((0, 0)))
  }

  test("isa returned by buildWithIsa is the inverse of the suffix array") {
    val t = paperT
    val sa = SuffixArrays.build(t)
    val (_, isa) = FMIndex.buildWithIsa(t, 7)
    t.indices.foreach(i => assert(sa(isa(i)) == i))
  }
}
