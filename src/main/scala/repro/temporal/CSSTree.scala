package repro.temporal

/** Cache-sensitive search tree (Rao & Ross, §4.3.1): a pointerless directory
  * of node-maximum keys over a sorted array, node width = 16 keys (one cache
  * line of ints). Append-only by construction — rebuilding the directory is
  * the only update path, matching the paper's batch-update trade-off.
  *
  * `lowerBound` descends the directory and returns an array position, so an
  * exact range count is `lowerBound(te) − lowerBound(ts)` in O(log n) — the
  * property the CSS-Fast/CSS-Acc estimator modes exploit (§4.4).
  */
final class CSSTree(keys: Array[Int]) extends TemporalSearch {
  private val Node = 16

  // levels(0) = maxima of 16-key blocks of `keys`; each upper level compresses
  // the one below by 16 until a single node remains. levels is top-down.
  private val levels: Array[Array[Int]] = {
    var cur = keys
    val out = collection.mutable.ArrayBuffer.empty[Array[Int]]
    while (cur.length > Node) {
      val up = new Array[Int]((cur.length + Node - 1) / Node)
      var i = 0
      while (i < up.length) {
        val end = math.min(cur.length, (i + 1) * Node) - 1
        up(i) = cur(end)
        i += 1
      }
      out += up
      cur = up
    }
    out.reverse.toArray
  }

  def lowerBound(key: Long): Int = {
    if (keys.isEmpty) return 0
    // Descend: child block index of directory entry i is i at the next level.
    var block = 0 // index of the current node's first entry at this level
    var lv = 0
    while (lv < levels.length) {
      val arr = levels(lv)
      val end = math.min(arr.length, block + Node)
      var i = block
      while (i < end && arr(i) < key) i += 1
      val child = if (i == end) end - 1 else i
      block = child * Node
      lv += 1
    }
    val end = math.min(keys.length, block + Node)
    var i = block
    while (i < end && keys(i) < key) i += 1
    i // keys.length when every key is < key
  }

  def memoryBytes: Long = levels.map(_.length.toLong * 4 + 16).sum + 32
}
