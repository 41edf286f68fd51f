package repro.eval

import repro.core.{FixedInterval, PeriodicInterval, Spq}
import repro.traj.Traj

import scala.util.Random

/** The query workload of §5.2/§6: queries are derived from a random sample
  * of trajectories whose start lies after the median timestamp (so every
  * query has a long data history), and come in three flavours.
  */
object Workload {

  sealed trait QueryType extends Serializable { def name: String }
  /** Periodic time-of-day interval, no user filter. */
  case object Temporal extends QueryType { val name = "Temporal" }
  /** Periodic interval + user filter f = {u = tr.u}. */
  case object UserQ extends QueryType { val name = "User" }
  /** Fixed interval [0, tr.t0), no user filter. */
  case object SpqOnly extends QueryType { val name = "SPQ-Only" }

  /** Random sample of n query trajectories starting after the median t0. */
  def sampleQueries(trajs: Array[Traj], n: Int, seed: Long = 99L): Array[Traj] = {
    val sortedT0 = trajs.map(_.t0).sorted
    val median = sortedT0(sortedT0.length / 2)
    val eligible = trajs.filter(t => t.t0 >= median && t.length >= 2)
    val rnd = new Random(seed)
    rnd.shuffle(eligible.toSeq).take(n).toArray
  }

  /** spq(P_tr, I_tr, f, β) per §5.2. The periodic interval is anchored at the
    * trajectory's start: [t0 − αmin/2, t0 + αmin/2)^R (containment is taken
    * mod 24 h, so absolute anchoring is equivalent to seconds-of-day).
    */
  def baseSpq(tr: Traj, qt: QueryType, alphaMin: Long, beta: Int): Spq = {
    val path = tr.edges.toVector
    val periodic = PeriodicInterval(tr.t0 - alphaMin / 2, tr.t0 - alphaMin / 2 + alphaMin)
    qt match {
      case Temporal => Spq(path, periodic, None, Some(beta), 0)
      case UserQ    => Spq(path, periodic, Some(tr.user), Some(beta), 0)
      case SpqOnly  => Spq(path, FixedInterval(0L, tr.t0), None, Some(beta), 0)
    }
  }
}
