package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.network.NetworkGen
import repro.testutil.Fixtures
import repro.traj.TrajectoryGen

import scala.util.Random

/** Partitioning methods π, checked against the §3.2 worked examples with the
  * query path P = ⟨A,C,D,E⟩ on the Figure 1 network.
  */
class PartitionerSpec extends AnyFunSuite {
  import Fixtures._

  private val q = Spq(Vector(A, C, D, E), PeriodicInterval(0, 900), Some(u1), Some(5), 0)

  private def paths(ps: Vector[Spq]): Seq[Seq[Int]] = ps.map(_.path.toSeq)

  test("π1 splits into singletons ⟨⟨A⟩,⟨C⟩,⟨D⟩,⟨E⟩⟩") {
    assert(paths(RegularPartitioner(1)(q, paperNetwork)) ==
      Seq(Seq(A), Seq(C), Seq(D), Seq(E)))
  }

  test("π2 splits into pairs ⟨⟨A,C⟩,⟨D,E⟩⟩") {
    assert(paths(RegularPartitioner(2)(q, paperNetwork)) == Seq(Seq(A, C), Seq(D, E)))
  }

  test("π3 splits into ⟨⟨A,C,D⟩,⟨E⟩⟩") {
    assert(paths(RegularPartitioner(3)(q, paperNetwork)) == Seq(Seq(A, C, D), Seq(E)))
  }

  test("πC cuts at category changes: ⟨⟨A⟩,⟨C,D⟩,⟨E⟩⟩") {
    assert(paths(CategoryPartitioner(q, paperNetwork)) == Seq(Seq(A), Seq(C, D), Seq(E)))
  }

  test("πZ cuts at zone changes: ⟨⟨A⟩,⟨C,D,E⟩⟩") {
    assert(paths(ZonePartitioner(q, paperNetwork)) == Seq(Seq(A), Seq(C, D, E)))
  }

  test("πZC cuts at zone or category changes: ⟨⟨A⟩,⟨C,D⟩,⟨E⟩⟩") {
    assert(paths(ZoneCategoryPartitioner(q, paperNetwork)) == Seq(Seq(A), Seq(C, D), Seq(E)))
  }

  test("πN keeps the whole path") {
    assert(paths(NonePartitioner(q, paperNetwork)) == Seq(Seq(A, C, D, E)))
  }

  test("πMDM keeps the user filter only on main-road sub-paths") {
    val subs = MdmPartitioner(q, paperNetwork)
    assert(paths(subs) == Seq(Seq(A), Seq(C, D), Seq(E)))
    // A is a motorway → filter kept; C,D secondary and E primary-in-city…
    assert(subs(0).user.contains(u1))
    assert(subs(1).user.isEmpty)
    // E is category primary → main road, filter kept.
    assert(subs(2).user.contains(u1))
  }

  test("all partitioners tile the path exactly (random paths)") {
    val net = NetworkGen.generate(10, 10, seed = 3L)
    val cfg = TrajectoryGen.Config(100, 8, 20, 10, seed = 5L)
    val trajs = TrajectoryGen.collectTrajs(net, cfg)
    val rnd = new Random(55)
    val pis = Seq(RegularPartitioner(1), RegularPartitioner(2), RegularPartitioner(3),
                  CategoryPartitioner, ZonePartitioner, ZoneCategoryPartitioner,
                  NonePartitioner, MdmPartitioner)
    for (_ <- 0 until 50) {
      val tr = trajs(rnd.nextInt(trajs.length))
      val query = Spq(tr.edges.toVector, PeriodicInterval(0, 900), Some(tr.user), Some(3), 0)
      for (pi <- pis) {
        val subs = pi(query, net)
        assert(subs.map(_.path).reduce(_ ++ _) == query.path, s"pi=${pi.name}")
        assert(subs.head.startIdx == 0 && subs.last.endIdx == query.path.length)
        subs.sliding(2).foreach {
          case Vector(a2, b2) => assert(a2.endIdx == b2.startIdx)
          case _ =>
        }
        subs.foreach(s => assert(s.endIdx - s.startIdx == s.path.length))
      }
    }
  }

  test("sub-queries inherit interval and β") {
    for (pi <- Seq[Partitioner](CategoryPartitioner, ZonePartitioner, RegularPartitioner(2))) {
      pi(q, paperNetwork).foreach { s =>
        assert(s.interval == q.interval)
        assert(s.beta == q.beta)
      }
    }
  }

  test("πC on a homogeneous path yields a single sub-query") {
    val q2 = Spq(Vector(C, D), PeriodicInterval(0, 900), None, Some(3), 0)
    assert(paths(CategoryPartitioner(q2, paperNetwork)) == Seq(Seq(C, D)))
  }
}
