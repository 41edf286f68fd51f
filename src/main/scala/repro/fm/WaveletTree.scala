package repro.fm

/** Bitvector with O(1) rank via per-word cumulative popcounts.
  *
  * Space: n bits payload + n/2 bits rank directory. This is the building
  * block of the wavelet tree (substitute for sdsl-lite's rank-support
  * vectors, §6.2).
  */
final class RankBitVector(val n: Int, bits: Array[Long]) extends Serializable {
  private val rankDir: Array[Int] = {
    val dir = new Array[Int](bits.length + 1)
    var i = 0
    while (i < bits.length) { dir(i + 1) = dir(i) + java.lang.Long.bitCount(bits(i)); i += 1 }
    dir
  }

  /** Number of 1-bits in [0, i). */
  def rank1(i: Int): Int = {
    val w = i >>> 6
    val r = i & 63
    var res = rankDir(w)
    if (r != 0) res += java.lang.Long.bitCount(bits(w) & ((1L << r) - 1))
    res
  }

  /** Number of 0-bits in [0, i). */
  def rank0(i: Int): Int = i - rank1(i)

  def memoryBytes: Long = bits.length.toLong * 8 + rankDir.length.toLong * 4 + 32
}

object RankBitVector {
  def fromBooleans(b: Array[Boolean]): RankBitVector = {
    val words = new Array[Long]((b.length + 63) >>> 6)
    var i = 0
    while (i < b.length) { if (b(i)) words(i >>> 6) |= 1L << (i & 63); i += 1 }
    new RankBitVector(b.length, words)
  }
}

/** Pointerless (level-wise) wavelet tree over an integer alphabet [0, sigma).
  *
  * Supports rank_c(i) — the number of occurrences of symbol c in the first i
  * positions — in O(log sigma), which is what Procedure 2's backward search
  * needs (§4.1.1). Each level stores one bit of every symbol; children of a
  * node occupy the parent's interval at the next level (zeros left, ones
  * right), so a query descends by interval arithmetic alone.
  */
final class WaveletTree private (val n: Int, val sigma: Int, val levels: Int,
                                 lvl: Array[RankBitVector]) extends Serializable {

  /** Occurrences of symbol c in positions [0, i). */
  def rank(c: Int, i: Int): Int = WaveletTree.upper(rankPair(c, 0, i))

  /** rank(c, i) and rank(c, j) for 0 ≤ i ≤ j ≤ n in one descent, packed as
    * `rank(c, i) << 32 | rank(c, j)` (read back with `lower` / `upper`).
    * Both bounds walk the same nodes, so a level costs four `rank0` calls
    * instead of the six of two separate descents. The descent stops as soon
    * as the bounds meet — c does not occur in [i, j) — and then returns two
    * equal halves that need not be the ranks themselves. With i = 0 it stops
    * only when both halves are 0, so `rank` stays exact.
    */
  def rankPair(c: Int, i: Int, j: Int): Long = {
    if (j <= i || c < 0 || c >= sigma) return 0L
    var lo = 0
    var hi = n
    var pi = i
    var pj = j
    var level = 0
    while (level < levels) {
      val bv = lvl(level)
      val bit = (c >>> (levels - 1 - level)) & 1
      val zerosBeforeLo = bv.rank0(lo)
      val zerosI = bv.rank0(lo + pi) - zerosBeforeLo
      val zerosJ = bv.rank0(lo + pj) - zerosBeforeLo
      val zerosNode = bv.rank0(hi) - zerosBeforeLo
      if (bit == 0) { pi = zerosI; pj = zerosJ; hi = lo + zerosNode }
      else { pi -= zerosI; pj -= zerosJ; lo = lo + zerosNode }
      if (pi == pj) return WaveletTree.pack(pi, pj)
      level += 1
    }
    WaveletTree.pack(pi, pj)
  }

  def memoryBytes: Long = lvl.map(_.memoryBytes).sum + 48
}

object WaveletTree {
  @inline private def pack(ri: Int, rj: Int): Long = (ri.toLong << 32) | (rj.toLong & 0xFFFFFFFFL)
  /** rank(c, i) of a `rankPair` result. */
  @inline def lower(r: Long): Int = (r >>> 32).toInt
  /** rank(c, j) of a `rankPair` result. */
  @inline def upper(r: Long): Int = r.toInt

  def build(s: Array[Int], sigma: Int): WaveletTree = {
    val n = s.length
    val levels = math.max(1, 32 - Integer.numberOfLeadingZeros(math.max(1, sigma - 1)))
    val cur = s.clone()
    val next = new Array[Int](n)
    val lvls = new Array[RankBitVector](levels)
    var level = 0
    while (level < levels) {
      val shift = levels - 1 - level
      val bitsArr = new Array[Boolean](n)
      var i = 0
      while (i < n) { bitsArr(i) = ((cur(i) >>> shift) & 1) == 1; i += 1 }
      lvls(level) = RankBitVector.fromBooleans(bitsArr)
      // Stable partition within each node interval; with the level-wise
      // layout this is a stable partition on the masked prefix of the symbol.
      if (level < levels - 1) {
        // Sort stably by the top (level+1) bits: zeros of each node go left.
        // Implemented as a counting sort on the prefix bits.
        val buckets = 1 << (level + 1)
        val cnt = new Array[Int](buckets + 1)
        i = 0
        while (i < n) { cnt((cur(i) >>> shift) + 1) += 1; i += 1 }
        i = 1
        while (i <= buckets) { cnt(i) += cnt(i - 1); i += 1 }
        i = 0
        while (i < n) { val b = cur(i) >>> shift; next(cnt(b)) = cur(i); cnt(b) += 1; i += 1 }
        System.arraycopy(next, 0, cur, 0, n)
      }
      level += 1
    }
    new WaveletTree(n, math.max(1, sigma), levels, lvls)
  }
}
