package repro.temporal

/** Immutable B+-tree over a sorted key array (substitute for cpp-btree's
  * btree_multimap, §6.3). Built bottom-up with fanout 16; leaves reference
  * ranges of the shared sorted array, inner nodes hold separator keys and
  * child pointers. Pointer-based on purpose — its per-node object overhead
  * is what makes the BT rows of Fig 10a slightly heavier than the CSS rows.
  */
final class BPlusTree(keys: Array[Int]) extends TemporalSearch {
  private val Fanout = 16

  private sealed trait Node extends Serializable
  private final case class Leaf(lo: Int, hi: Int) extends Node
  private final case class Inner(seps: Array[Int], children: Array[Node]) extends Node

  private val (root: Node, nodeCount: Int) = {
    if (keys.isEmpty) (Leaf(0, 0), 1)
    else {
      var nodes: Vector[(Int, Node)] = // (subtree max key, node)
        (0 until keys.length by Fanout).map { lo =>
          val hi = math.min(keys.length, lo + Fanout)
          (keys(hi - 1), Leaf(lo, hi): Node)
        }.toVector
      var count = nodes.length
      while (nodes.length > 1) {
        nodes = nodes.grouped(Fanout).map { grp =>
          count += 1
          (grp.last._1, Inner(grp.map(_._1).toArray, grp.map(_._2).toArray): Node)
        }.toVector
      }
      (nodes.head._2, count)
    }
  }

  def lowerBound(key: Long): Int = {
    var node = root
    while (true) {
      node match {
        case Inner(seps, children) =>
          var i = 0
          while (i < seps.length - 1 && seps(i) < key) i += 1
          node = children(i)
        case Leaf(lo, hi) =>
          var i = lo
          while (i < hi && keys(i) < key) i += 1
          return i
      }
    }
    0 // unreachable
  }

  // ~48 bytes object overhead per node + separator/child arrays for inners.
  def memoryBytes: Long = nodeCount.toLong * 48 + {
    def sz(n: Node): Long = n match {
      case Inner(s, c) => s.length.toLong * 4 + c.length.toLong * 8 + 32 + c.map(sz).sum
      case _: Leaf     => 16L
    }
    sz(root)
  }
}
