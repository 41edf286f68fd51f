package repro.fm

/** FM-index over a trajectory string (§4.1.1): symbol counts C + the
  * Burrows-Wheeler transform in a wavelet tree. Answers the ISA range
  * [st, ed) of any path via backward search (Procedure 2) in
  * O(|P| log sigma), independent of the number of trajectories.
  */
final class FMIndex(val n: Int, val sigma: Int, val counts: Array[Int],
                    val bwtTree: WaveletTree) extends Serializable {

  /** Procedure 2 — ISA range [st, ed) of all suffixes starting with `path`.
    * Empty ranges come back as (0, 0); `ed − st` is the exact number of
    * occurrences of the path in the trajectory set (the c_P of §4.4).
    */
  def pathRange(path: IndexedSeq[Int]): (Int, Int) = {
    val l = path.length
    if (l == 0) return (0, 0)
    var c = path(l - 1)
    var st = counts(c)
    var ed = counts(c + 1)
    var i = 2
    while (i <= l) {
      c = path(l - i)
      // One wavelet-tree descent for both bounds; it may stop early only
      // when the range becomes empty, which is mapped to (0, 0) here.
      val r = bwtTree.rankPair(c, st, ed)
      st = counts(c) + WaveletTree.lower(r)
      ed = counts(c) + WaveletTree.upper(r)
      if (st >= ed) return (0, 0)
      i += 1
    }
    (st, ed)
  }
}

object FMIndex {
  /** Build the FM-index of `text` (alphabet [0, sigma), 0 = `$`) and return
    * it together with the inverse suffix array, which the temporal-index
    * builder needs to stamp every traversal leaf with its ISA value.
    */
  def buildWithIsa(text: Array[Int], sigma: Int): (FMIndex, Array[Int]) = {
    // The trajectory string always ends with `$` (= 0); backward search
    // relies on this for the BWT's wrap-around position to be a separator.
    require(text.nonEmpty && text.last == 0, "trajectory string must end with the $ separator")
    val sa = SuffixArrays.build(text)
    val isa = SuffixArrays.inverse(sa)
    val bwt = SuffixArrays.bwt(text, sa)
    val counts = SuffixArrays.symbolCounts(text, sigma)
    val wt = WaveletTree.build(bwt, sigma)
    (new FMIndex(text.length, sigma, counts, wt), isa)
  }
}
