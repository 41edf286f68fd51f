package repro.temporal

/** Columnar leaf records of one edge's temporal index, sorted by entry
  * timestamp `t`. Each position i is the extended leaf of §4.1.2/4.1.3:
  * t → (isa, d, TT, a, seq, w): ISA value, trajectory reference (its
  * position in the array the index was built from), traversal time,
  * cumulative travel time from the trajectory start, sequence number, and
  * the temporal-partition id (§4.3.2).
  */
final class TemporalRecords(
    val t: Array[Long],
    val isa: Array[Int],
    val d: Array[Int],
    val tt: Array[Double],
    val a: Array[Double],
    val seq: Array[Int],
    val w: Array[Int],
) extends Serializable {
  def size: Int = t.length
  def minKey: Long = if (size == 0) Long.MaxValue else t(0)
  def maxKey: Long = if (size == 0) Long.MinValue else t(size - 1)

  /** Payload bytes (excluding the search structure on top). */
  def memoryBytes: Long =
    t.length.toLong * (8 + 4 + 4 + 8 + 8 + 4 + 4) + 7 * 16
}

object TemporalRecords {
  final case class Row(t: Long, isa: Int, d: Int, tt: Double, a: Double, seq: Int, w: Int)

  def fromRows(rows: Array[Row]): TemporalRecords = {
    // Stable like `sortBy` (equal entry times keep build order), without boxing the keys.
    val s = rows.clone()
    java.util.Arrays.sort(s, java.util.Comparator.comparingLong[Row](_.t))
    new TemporalRecords(
      s.map(_.t), s.map(_.isa), s.map(_.d), s.map(_.tt), s.map(_.a), s.map(_.seq), s.map(_.w))
  }
}

/** Search structure over one edge's sorted timestamp column. Both tree
  * variants return positions in the sorted array, so range scans are array
  * slices.
  */
trait TemporalSearch extends Serializable {
  /** First position with t ≥ key. */
  def lowerBound(key: Long): Int
  /** Whether exact range counts are part of the variant's API contract
    * (CSS-trees: yes, used by the CSS-Fast/CSS-Acc estimator modes, §4.4;
    * B+-trees: no, the BT modes fall back to Eq. 3).
    */
  def supportsExactCount: Boolean
  def memoryBytes: Long
}
