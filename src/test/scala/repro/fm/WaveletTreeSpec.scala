package repro.fm

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class WaveletTreeSpec extends AnyFunSuite {

  private def naiveRank(s: Array[Int], c: Int, i: Int): Int = s.take(i).count(_ == c)

  test("RankBitVector rank1/rank0 match naive counts") {
    val rnd = new Random(11)
    for (_ <- 0 until 30) {
      val b = Array.fill(1 + rnd.nextInt(300))(rnd.nextBoolean())
      val bv = RankBitVector.fromBooleans(b)
      for (i <- 0 to b.length) {
        assert(bv.rank1(i) == b.take(i).count(identity))
        assert(bv.rank0(i) == i - b.take(i).count(identity))
      }
    }
  }

  test("wavelet tree rank matches naive on random sequences, several alphabets") {
    val rnd = new Random(13)
    for (sigma <- Seq(2, 3, 5, 8, 17, 64)) {
      val s = Array.fill(500)(rnd.nextInt(sigma))
      val wt = WaveletTree.build(s, sigma)
      for (_ <- 0 until 200) {
        val c = rnd.nextInt(sigma)
        val i = rnd.nextInt(s.length + 1)
        assert(wt.rank(c, i) == naiveRank(s, c, i), s"sigma=$sigma c=$c i=$i")
      }
    }
  }

  test("wavelet tree rank at every position for a small sequence") {
    val s = Array(3, 1, 4, 1, 5, 2, 6, 5, 3, 5)
    val wt = WaveletTree.build(s, 7)
    for (c <- 0 until 7; i <- 0 to s.length)
      assert(wt.rank(c, i) == naiveRank(s, c, i))
  }

  test("rankPair returns both naive ranks whenever they differ, equal halves otherwise; rank is exact") {
    val rnd = new Random(15)
    for (sigma <- Seq(1, 2, 3, 5, 8, 17, 64); _ <- 0 until 3) {
      val s = Array.fill(rnd.nextInt(120))(rnd.nextInt(sigma))
      val wt = WaveletTree.build(s, sigma)
      for (c <- -1 to sigma) {
        // naive(i) = occurrences of c in s[0, i)
        val naive = s.scanLeft(0)((acc, x) => if (x == c) acc + 1 else acc)
        for (i <- 0 to s.length) {
          assert(wt.rank(c, i) == naive(i), s"sigma=$sigma c=$c i=$i")
          for (j <- i to s.length) {
            val r = wt.rankPair(c, i, j)
            val (lo, hi) = (WaveletTree.lower(r), WaveletTree.upper(r))
            val clue = s"sigma=$sigma n=${s.length} c=$c i=$i j=$j got=($lo, $hi)"
            if (naive(i) != naive(j)) assert(lo == naive(i) && hi == naive(j), clue)
            else assert(lo == hi, clue)
          }
        }
      }
    }
  }

  test("rank of out-of-alphabet symbol and of i=0 is 0") {
    val wt = WaveletTree.build(Array(0, 1, 2), 3)
    assert(wt.rank(5, 3) == 0)
    assert(wt.rank(-1, 3) == 0)
    assert(wt.rank(1, 0) == 0)
  }

  test("wavelet tree on the paper's BWT answers the ranks of Procedure 2's example") {
    // rank_A(Tbwt, 8) = 0 and rank_A(Tbwt, 11) = 3 (§4.1.1)
    val t = "ABE ACDE ABF ABE ".map(c => if (c == ' ') 0 else c - 'A' + 1).toArray
    val bwt = SuffixArrays.bwt(t, SuffixArrays.build(t))
    val wt = WaveletTree.build(bwt, 7)
    assert(wt.rank(1, 8) == 0)
    assert(wt.rank(1, 11) == 3)
  }

  test("memoryBytes grows with input size") {
    val small = WaveletTree.build(Array.fill(100)(1), 4)
    val large = WaveletTree.build(Array.fill(10000)(1), 4)
    assert(large.memoryBytes > small.memoryBytes)
  }
}
