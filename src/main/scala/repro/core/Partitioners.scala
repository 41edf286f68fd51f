package repro.core

import repro.network.{Category, RoadNetwork}

/** Initial query partitioning methods π (§3.2). Each turns the trip query
  * into a sequence of sub-queries over sub-paths that partition the path;
  * all sub-queries start with the query's (αmin-sized) time interval and
  * filter predicate.
  */
sealed trait Partitioner extends Serializable {
  def name: String
  def apply(q: Spq, net: RoadNetwork): Vector[Spq]

  /** Cut the path at every boundary where `key` changes (shared by the
    * category/zone methods).
    */
  protected def splitByKey(q: Spq, net: RoadNetwork)(key: Int => Long): Vector[Spq] = {
    val bounds = collection.mutable.ArrayBuffer(0)
    var i = 1
    while (i < q.path.length) {
      if (key(q.path(i)) != key(q.path(i - 1))) bounds += i
      i += 1
    }
    bounds += q.path.length
    bounds.sliding(2).map { case collection.mutable.ArrayBuffer(a, b) =>
      q.copy(path = q.path.slice(a, b), startIdx = q.startIdx + a)
    }.toVector
  }
}

/** π_p — regular partitioning into sub-paths of fixed length p (§3.2.1).
  * π₁/π₂/π₃ are the paper's pre-computable histogram baselines.
  */
final case class RegularPartitioner(p: Int) extends Partitioner {
  require(p >= 1)
  val name = s"pi$p"
  def apply(q: Spq, net: RoadNetwork): Vector[Spq] =
    (0 until q.path.length by p)
      .map(a => q.copy(path = q.path.slice(a, a + p), startIdx = q.startIdx + a)).toVector
}

/** π_C — cut at segment-category changes (§3.2.2). */
case object CategoryPartitioner extends Partitioner {
  val name = "piC"
  def apply(q: Spq, net: RoadNetwork): Vector[Spq] =
    splitByKey(q, net)(e => net.attr(e).category.toLong)
}

/** π_Z — cut at zone-type changes (§3.2.3). */
case object ZonePartitioner extends Partitioner {
  val name = "piZ"
  def apply(q: Spq, net: RoadNetwork): Vector[Spq] =
    splitByKey(q, net)(e => net.attr(e).zone.toLong)
}

/** π_ZC — cut when either zone or category changes (§3.2.4). */
case object ZoneCategoryPartitioner extends Partitioner {
  val name = "piZC"
  def apply(q: Spq, net: RoadNetwork): Vector[Spq] =
    splitByKey(q, net)(e => net.attr(e).zone.toLong * 64 + net.attr(e).category)
}

/** π_N — no initial partitioning (§3.2.5). */
case object NonePartitioner extends Partitioner {
  val name = "piN"
  def apply(q: Spq, net: RoadNetwork): Vector[Spq] = Vector(q)
}

/** π_MDM — partitions like π_C but keeps the user filter only on main-road
  * sub-paths (motorway/trunk/primary), dropping it elsewhere (§6.1, derived
  * from [26]).
  */
case object MdmPartitioner extends Partitioner {
  val name = "piMDM"
  def apply(q: Spq, net: RoadNetwork): Vector[Spq] =
    CategoryPartitioner(q, net).map { sq =>
      if (Category.MainRoads(net.attr(sq.path.head).category)) sq
      else sq.copy(user = None)
    }
}
