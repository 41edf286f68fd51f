package repro.traj

import repro.SparkSpec
import repro.network.{NetworkGen, Zone}

/** Trajectory generator: structural invariants, determinism, Dataset/driver
  * consistency, and the congestion/driver/turn-cost signals the experiments
  * rely on.
  */
class TrajectoryGenSpec extends SparkSpec {

  private val net = NetworkGen.generate(10, 10, seed = 3L)
  private val cfg = TrajectoryGen.Config(300, 10, 30, 30, seed = 23L)
  private lazy val trajs = TrajectoryGen.collectTrajs(net, cfg)

  /** Rebuild in-memory trajectories from traversal rows (any order). */
  private def fromTraversals(rows: Iterable[Traversal]): Array[Traj] =
    rows.groupBy(_.trajId).toArray.sortBy(_._1).map { case (id, ts) =>
      val s = ts.toArray.sortBy(_.seq)
      Traj(id, s.head.userId, s.map(_.edge), s.map(_.t), s.map(_.tt))
    }

  test("generates the requested number of trajectories") {
    assert(trajs.length == 300)
  }

  test("every trajectory follows connected edges") {
    for (tr <- trajs; i <- 1 until tr.length)
      assert(net.to(tr.edges(i - 1)) == net.from(tr.edges(i)))
  }

  test("entry timestamps are strictly increasing") {
    for (tr <- trajs; i <- 1 until tr.length)
      assert(tr.times(i) > tr.times(i - 1))
  }

  test("all traversal times are positive and entry deltas match rounded TTs") {
    for (tr <- trajs) {
      assert(tr.tts.forall(_ >= 1.0))
      for (i <- 1 until tr.length)
        assert(tr.times(i) - tr.times(i - 1) == math.max(1L, math.round(tr.tts(i - 1))))
    }
  }

  test("generation is deterministic in the seed") {
    val again = TrajectoryGen.collectTrajs(net, cfg)
    assert(again.length == trajs.length)
    for ((a, b) <- again.zip(trajs)) {
      assert(a.edges.toSeq == b.edges.toSeq)
      assert(a.times.toSeq == b.times.toSeq)
      assert(a.tts.toSeq == b.tts.toSeq)
    }
  }

  test("user ids are within [0, numDrivers)") {
    assert(trajs.forall(t => t.user >= 0 && t.user < cfg.numDrivers))
  }

  test("start times fall within the configured day range") {
    assert(trajs.forall(t => t.t0 >= 0 && t.t0 < cfg.days.toLong * 86400))
  }

  test("routes are heavily shared (sub-path sharing for SPQs)") {
    // At least a third of trajectories share their full path with another.
    val byPath = trajs.groupBy(_.edges.toSeq)
    val shared = byPath.valuesIterator.filter(_.length >= 2).map(_.length).sum
    assert(shared >= trajs.length / 3, s"only $shared of ${trajs.length} share a path")
  }

  test("weekday rush-hour traversals are slower than night traversals (congestion signal)") {
    def meanSpeedRatio(pred: Long => Boolean): Double = {
      val xs = for {
        tr <- trajs; i <- 0 until tr.length
        t = tr.times(i)
        if pred(t)
        a = net.attr(tr.edges(i))
        if a.zone == Zone.City
      } yield (3.6 * a.lengthM / a.speedLimitKmh) / tr.tts(i) // observed/free-flow inverse
      if (xs.isEmpty) Double.NaN else xs.sum / xs.size
    }
    def hourOf(t: Long): Double = (t % 86400L).toDouble / 3600.0
    def weekday(t: Long): Boolean = (t / 86400L) % 7 < 5
    val rush = meanSpeedRatio(t => weekday(t) && hourOf(t) >= 7.5 && hourOf(t) <= 8.5)
    val night = meanSpeedRatio(t => hourOf(t) >= 1 && hourOf(t) <= 4)
    assert(!rush.isNaN && !night.isNaN)
    assert(rush < night, s"rush=$rush night=$night") // lower ratio = slower traffic
  }

  test("driver factor is persistent per driver and category") {
    assert(TrajectoryGen.driverFactor(3, 0) == TrajectoryGen.driverFactor(3, 0))
    val diffs = (0 until 50).count(u =>
      math.abs(TrajectoryGen.driverFactor(u, 0) - TrajectoryGen.driverFactor(u + 1, 0)) > 1e-3)
    assert(diffs > 30)
  }

  test("congestion dips at rush hour on weekdays but not weekends") {
    val rush = TrajectoryGen.congestion(8.0, Zone.City, 5, weekend = false)
    val off = TrajectoryGen.congestion(12.5, Zone.City, 5, weekend = false)
    val wkd = TrajectoryGen.congestion(8.0, Zone.City, 5, weekend = true)
    assert(rush < off)
    assert(wkd > rush)
  }

  test("turn delay means are zero for trip starts and larger in cities") {
    assert(TrajectoryGen.turnMean(net, 0, 1) == 0.0)
    val cityEdges = (1 to net.numEdges).filter(e => net.attr(e).zone == Zone.City)
    val ruralEdges = (1 to net.numEdges).filter(e => net.attr(e).zone == Zone.Rural)
    val cityMean = cityEdges.take(50).map(e => TrajectoryGen.turnMean(net, 1, e)).sum / 50
    val ruralMean = ruralEdges.take(50).map(e => TrajectoryGen.turnMean(net, 1, e)).sum / 50
    assert(cityMean > ruralMean)
  }

  test("inverseNormal approximates the standard normal quantile") {
    assert(math.abs(TrajectoryGen.inverseNormal(0.5)) < 1e-6)
    assert(math.abs(TrajectoryGen.inverseNormal(0.975) - 1.95996) < 1e-3)
    assert(math.abs(TrajectoryGen.inverseNormal(0.025) + 1.95996) < 1e-3)
  }

  test("Dataset generation matches driver-side generation") {
    import spark.implicits._
    val ds = TrajectoryGen.traversals(spark, net, cfg)
    val fromDs = fromTraversals(ds.collect())
    assert(fromDs.length == trajs.length)
    for ((a, b) <- fromDs.sortBy(_.id).zip(trajs.sortBy(_.id))) {
      assert(a.user == b.user)
      assert(a.edges.toSeq == b.edges.toSeq)
      assert(a.times.toSeq == b.times.toSeq)
      assert(a.tts.toSeq == b.tts.toSeq)
    }
  }

  test("Traj.durRange and cum are consistent") {
    val tr = trajs.head
    assert(math.abs(tr.durRange(0, tr.length) - tr.tts.sum) < 1e-9)
    if (tr.length >= 3)
      assert(math.abs(tr.durRange(1, 3) - (tr.tts(1) + tr.tts(2))) < 1e-9)
  }
}
