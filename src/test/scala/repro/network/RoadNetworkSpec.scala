package repro.network

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.Fixtures

/** Network substrate tests, including the paper's Table 1 worked example. */
class RoadNetworkSpec extends AnyFunSuite {

  test("Table 1: estimateTT of segment A (motorway, 110 km/h, 900 m) is 29.5 s") {
    assert(math.abs(Fixtures.paperNetwork.estimateTT(Fixtures.A) - 29.5) < 0.1)
  }
  test("Table 1: estimateTT of segment B is 8.6 s") {
    assert(math.abs(Fixtures.paperNetwork.estimateTT(Fixtures.B) - 8.6) < 0.1)
  }
  test("Table 1: estimateTT of segment C is 4.8 s") {
    assert(math.abs(Fixtures.paperNetwork.estimateTT(Fixtures.C) - 4.8) < 0.01)
  }
  test("Table 1: estimateTT of segment D is 9.6 s") {
    assert(math.abs(Fixtures.paperNetwork.estimateTT(Fixtures.D) - 9.6) < 0.01)
  }
  test("Table 1: estimateTT of segment E is 7.2 s") {
    assert(math.abs(Fixtures.paperNetwork.estimateTT(Fixtures.E) - 7.2) < 0.01)
  }
  test("Table 1: estimateTT of segment F is 36.0 s") {
    assert(math.abs(Fixtures.paperNetwork.estimateTT(Fixtures.F) - 36.0) < 0.01)
  }

  private val net = NetworkGen.generate(12, 12, seed = 5L)

  test("generated network has the expected vertex count") {
    assert(net.numVertices == 144)
  }
  test("generated network edge count matches the grid structure") {
    // 2 directions × (W·(H−1) + H·(W−1)) undirected segments
    assert(net.numEdges == 2 * (12 * 11 + 12 * 11))
  }
  test("edge ids start at 1; id 0 is the reserved separator") {
    assert(net.attr(0).category == -1)
    assert(net.attr(1).category >= 0)
  }
  test("every edge has positive length and speed limit") {
    (1 to net.numEdges).foreach { e =>
      assert(net.attr(e).lengthM > 0); assert(net.attr(e).speedLimitKmh > 0)
    }
  }
  test("edges come in both directions with identical attributes") {
    (1 to net.numEdges by 2).foreach { e =>
      assert(net.from(e) == net.to(e + 1) && net.to(e) == net.from(e + 1))
      assert(net.attr(e) == net.attr(e + 1))
    }
  }
  test("all four zone types appear in a 12x12 grid") {
    val zones = (1 to net.numEdges).map(net.attr(_).zone).toSet
    assert(Set(Zone.City, Zone.Rural, Zone.Ambiguous).subsetOf(zones))
  }
  test("several categories appear, including motorway and residential") {
    val cats = (1 to net.numEdges).map(net.attr(_).category).toSet
    assert(cats.contains(Category.Motorway))
    assert(cats.contains(Category.Residential))
    assert(cats.size >= 4)
  }
  test("outEdges is consistent with the from array") {
    (1 to net.numEdges).foreach(e => assert(net.outEdges(net.from(e)).contains(e)))
  }
  test("generation is deterministic in the seed") {
    val n2 = NetworkGen.generate(12, 12, seed = 5L)
    assert(n2.attr.toSeq == net.attr.toSeq)
  }
  test("different seeds produce different lengths") {
    val n2 = NetworkGen.generate(12, 12, seed = 6L)
    assert(n2.attr.toSeq != net.attr.toSeq)
  }

  test("shortestPath returns a connected edge sequence from src to dst") {
    val p = NetworkGen.shortestPath(net, 0, net.numVertices - 1).get
    assert(net.from(p.head) == 0)
    assert(net.to(p.last) == net.numVertices - 1)
    p.sliding(2).foreach { case Vector(e1, e2) => assert(net.to(e1) == net.from(e2)); case _ => }
  }
  test("shortestPath between adjacent vertices is no slower than the direct edge") {
    val e = 1
    val p = NetworkGen.shortestPath(net, net.from(e), net.to(e)).get
    assert(p.map(net.estimateTT).sum <= net.estimateTT(e) + 1e-9)
    assert(net.from(p.head) == net.from(e) && net.to(p.last) == net.to(e))
  }
  test("shortestPath is optimal w.r.t. free-flow time on a small grid") {
    // Compare against Bellman-Ford style relaxation.
    val dist = Array.fill(net.numVertices)(Double.PositiveInfinity)
    dist(0) = 0
    (0 until net.numVertices).foreach { _ =>
      (1 to net.numEdges).foreach { e =>
        val nd = dist(net.from(e)) + net.estimateTT(e)
        if (nd < dist(net.to(e))) dist(net.to(e)) = nd
      }
    }
    val target = net.numVertices - 1
    val p = NetworkGen.shortestPath(net, 0, target).get
    assert(math.abs(p.map(net.estimateTT).sum - dist(target)) < 1e-6)
  }
}
