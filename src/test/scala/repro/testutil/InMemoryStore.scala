package repro.testutil

import repro.core.TimeInterval.DaySec
import repro.hist.HistogramStore
import repro.traj.Traj

/** The Histogram Store that `HistogramStore.build` makes of a trajectory set
  * without temporal partitions, counted in memory so that tests need no
  * Spark session.
  */
object InMemoryStore {
  def apply(trajs: Seq[Traj], bucketSec: Int): HistogramStore = {
    val m = collection.mutable.HashMap.empty[(Int, Int), Array[Int]]
    for (tr <- trajs; i <- 0 until tr.length) {
      val arr = m.getOrElseUpdate((tr.edges(i), 0), new Array[Int]((DaySec / bucketSec).toInt))
      arr((Math.floorMod(tr.times(i), DaySec) / bucketSec).toInt) += 1
    }
    new HistogramStore(bucketSec, m.toMap)
  }
}
