package repro.fm

/** Bitvector with O(1) rank via per-word cumulative popcounts.
  *
  * Space: n bits payload + n/2 bits rank directory. This is the building
  * block of the wavelet tree (substitute for sdsl-lite's rank-support
  * vectors, §6.2). `bits` holds bit i at `bits(i >>> 6) >>> (i & 63)`; the
  * bits past n must be 0.
  */
final class RankBitVector(val n: Int, bits: Array[Long]) extends Serializable {
  private val rankDir: Array[Int] = {
    val dir = new Array[Int](bits.length + 1)
    var i = 0
    while (i < bits.length) { dir(i + 1) = dir(i) + java.lang.Long.bitCount(bits(i)); i += 1 }
    dir
  }

  /** Number of 0-bits in [0, n), from the directory's last entry. */
  val zeros: Int = n - rankDir(bits.length)

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

/** Wavelet tree over an integer alphabet [0, sigma) in the wavelet-matrix
  * layout (Claude, Navarro & Ordóñez, 2015).
  *
  * Supports rank_c(i) — the number of occurrences of symbol c in the first i
  * positions — in O(log sigma), which is what Procedure 2's backward search
  * needs (§4.1.1). Level l holds bit l of every symbol, most significant
  * first, in the order the levels above left them; the next level's order
  * is a stable partition by that bit, zeros first. So a position x at level
  * l moves to `rank0(x)` when c's bit is 0 and to `zeros + rank1(x)` when
  * it is 1, and after the last level c's occurrences form one block that
  * position 0 leads into.
  */
final class WaveletTree private (val n: Int, val sigma: Int, val levels: Int,
                                 lvl: Array[RankBitVector]) extends Serializable {

  /** Occurrences of symbol c in positions [0, i). */
  def rank(c: Int, i: Int): Int = WaveletTree.upper(rankPair(c, 0, i))

  /** rank(c, i) and rank(c, j) for 0 ≤ i ≤ j ≤ n in one descent, packed as
    * `rank(c, i) << 32 | rank(c, j)` (read back with `lower` / `upper`).
    * Three positions follow c's bits down: the block start 0, i and j, so a
    * level costs three ranks; each rank is its position's distance from the
    * block start at the bottom. The descent stops as soon as i and j meet —
    * c does not occur in [i, j) — and then returns two equal halves that
    * need not be the ranks themselves. With i = 0, i moves with the block
    * start, so it stops only when both halves are 0 and `rank` stays exact.
    */
  def rankPair(c: Int, i: Int, j: Int): Long = {
    if (j <= i || c < 0 || c >= sigma) return 0L
    var p0 = 0
    var pi = i
    var pj = j
    var level = 0
    while (level < levels) {
      val bv = lvl(level)
      // The ranks come before the branch on c's bit, which only picks how to
      // use them (zeros + rank1(x) = zeros + x − rank0(x)): c's bits are
      // unpredictable, and ranks taken inside the branch searched slower.
      val z0 = bv.rank0(p0)
      val zi = bv.rank0(pi)
      val zj = bv.rank0(pj)
      if (((c >>> (levels - 1 - level)) & 1) == 0) { p0 = z0; pi = zi; pj = zj }
      else { p0 = bv.zeros + p0 - z0; pi = bv.zeros + pi - zi; pj = bv.zeros + pj - zj }
      if (pi == pj) return WaveletTree.pack(pi - p0, pj - p0)
      level += 1
    }
    WaveletTree.pack(pi - p0, pj - p0)
  }

  def memoryBytes: Long = lvl.map(_.memoryBytes).sum + 48
}

object WaveletTree {
  @inline private def pack(ri: Int, rj: Int): Long = (ri.toLong << 32) | (rj.toLong & 0xFFFFFFFFL)
  /** rank(c, i) of a `rankPair` result. */
  @inline def lower(r: Long): Int = (r >>> 32).toInt
  /** rank(c, j) of a `rankPair` result. */
  @inline def upper(r: Long): Int = r.toInt

  /** Two passes per level: one writes the level's bits, one partitions the
    * symbols into the other buffer by them for the next level.
    */
  def build(s: Array[Int], sigma: Int): WaveletTree = {
    val n = s.length
    val levels = math.max(1, 32 - Integer.numberOfLeadingZeros(math.max(1, sigma - 1)))
    var cur = s.clone()
    var next = new Array[Int](n)
    val lvls = new Array[RankBitVector](levels)
    var level = 0
    while (level < levels) {
      val shift = levels - 1 - level
      val words = new Array[Long]((n + 63) >>> 6)
      var i = 0
      while (i < n) { words(i >>> 6) |= ((cur(i) >>> shift) & 1L) << (i & 63); i += 1 }
      val bv = new RankBitVector(n, words)
      var zero = 0
      var one = bv.zeros
      i = 0
      while (i < n) {
        if (((cur(i) >>> shift) & 1) == 0) { next(zero) = cur(i); zero += 1 } else { next(one) = cur(i); one += 1 }
        i += 1
      }
      lvls(level) = bv
      val t = cur; cur = next; next = t
      level += 1
    }
    new WaveletTree(n, math.max(1, sigma), levels, lvls)
  }
}
