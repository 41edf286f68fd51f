package repro.network

/** Road-segment categories, modelled after the OpenStreetMap highway tags the
  * paper's North-Denmark graph uses (we keep 6 of the 17 OSM categories; the
  * algorithms only compare categories for equality and membership in the
  * "main road" set used by the π_MDM partitioning).
  */
object Category {
  val Motorway    = 0
  val Trunk       = 1
  val Primary     = 2
  val Secondary   = 3
  val Tertiary    = 4
  val Residential = 5
  val All: Seq[Int] = 0 to 5
  val names: Array[String] =
    Array("motorway", "trunk", "primary", "secondary", "tertiary", "residential")

  /** Main roads: the categories π_MDM applies user filters to (§6.1). */
  val MainRoads: Set[Int] = Set(Motorway, Trunk, Primary)
}

/** Zone types from the Danish Business Authority zoning map (§5.1.2). */
object Zone {
  val City      = 0
  val Rural     = 1
  val Summer    = 2
  val Ambiguous = 3
  val All: Seq[Int]         = 0 to 3
  val names: Array[String]  = Array("city", "rural", "summer", "ambiguous")
}

/** Attributes F(e) = (category, zone, speed limit [km/h], length [m]) of one
  * directed edge (§2.2).
  */
final case class EdgeAttr(category: Int, zone: Int, speedLimitKmh: Double, lengthM: Double)

/** A directed spatial network G = (V, E, F).
  *
  * Edges are identified by dense integer ids starting at 1 — id 0 is reserved
  * for the `$` trajectory separator of the FM-index alphabet. `from`/`to`
  * give the incident vertices, `attr` the F-function of §2.2.
  */
final class RoadNetwork(
    val numVertices: Int,
    val from: Array[Int],  // indexed by edge id (entry 0 unused)
    val to: Array[Int],
    val attr: Array[EdgeAttr],
) extends Serializable {

  /** Number of edges; valid ids are 1..numEdges. */
  def numEdges: Int = from.length - 1

  /** Outgoing edge ids per vertex (built once, used by generators). */
  lazy val outEdges: Array[Array[Int]] = {
    val buf = Array.fill(numVertices)(List.empty[Int])
    var e = 1
    while (e <= numEdges) { buf(from(e)) = e :: buf(from(e)); e += 1 }
    buf.map(_.toArray)
  }

  /** Traversal time in seconds at the speed limit: estimateTT(e) = 3.6·l/sl
    * (§2.2). Used as the fallback when no trajectory data exists for a segment.
    */
  def estimateTT(e: Int): Double = 3.6 * attr(e).lengthM / attr(e).speedLimitKmh
}
