package repro.temporal

/** Columnar leaf records of one edge's temporal index, sorted by entry
  * timestamp `t`. Each position i is the extended leaf of §4.1.2/4.1.3:
  * t → (isa, d, TT, a, seq, w): ISA value, trajectory reference (its
  * position in the array the index was built from), traversal time,
  * cumulative travel time from the trajectory start, sequence number, and
  * the temporal-partition id (§4.3.2). A leaf takes 32 bytes: t is an `Int`
  * of seconds in [0, 2^31), seq and w are `Short`s.
  */
final class TemporalRecords(
    val t: Array[Int],
    val isa: Array[Int],
    val d: Array[Int],
    val tt: Array[Double],
    val a: Array[Double],
    val seq: Array[Short],
    val w: Array[Short],
) extends Serializable {
  def size: Int = t.length
  def minKey: Long = if (size == 0) Long.MaxValue else t(0)
  def maxKey: Long = if (size == 0) Long.MinValue else t(size - 1)

  /** Payload bytes (excluding the search structure on top). */
  def memoryBytes: Long =
    t.length.toLong * (4 + 4 + 4 + 8 + 8 + 2 + 2) + 7 * 16
}

object TemporalRecords {

  /** The indices of `t` in ascending order of entry time: the leaf given at
    * index order(i) goes to position i. Equal entry times keep the order
    * given, as a stable sort would. One primitive sort on the unique keys
    * t·2^32 + j.
    */
  def timeOrder(t: Array[Int]): Array[Int] = {
    val keys = new Array[Long](t.length)
    var j = 0
    while (j < t.length) { keys(j) = (t(j).toLong << 32) | j; j += 1 }
    java.util.Arrays.sort(keys)
    val order = new Array[Int](t.length)
    j = 0
    while (j < t.length) { order(j) = keys(j).toInt; j += 1 }
    order
  }
}

/** Search structure over one edge's sorted timestamp column. Both tree
  * variants return positions in the sorted array, so range scans are array
  * slices.
  */
trait TemporalSearch extends Serializable {
  /** First position with t ≥ key. */
  def lowerBound(key: Long): Int
  def memoryBytes: Long
}
