package repro.traj

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.TimeInterval.DaySec
import repro.network.{Category, NetworkGen, RoadNetwork, Zone}

import scala.util.Random

/** Synthetic network-constrained trajectory generator (substitute for the
  * map-matched ITSP GPS dataset, §5.1.3).
  *
  * Design goals (what the paper's experiments actually depend on):
  *   - heavy sub-path sharing: trajectories follow a pool of shortest-path
  *     routes between popular origin/destination pairs (Zipf-ish popularity),
  *     so strict path queries find matching trajectories;
  *   - time-of-day dependence: Gaussian rush-hour congestion dips (weekdays
  *     only) slow city and motorway traffic, so periodic intervals carry
  *     signal that the fixed `[0, tmax)` interval misses;
  *   - driver consistency: each driver has a persistent speed factor (larger
  *     spread on main roads), so user filters matter mostly on main roads
  *     (the π_MDM premise, [26]);
  *   - turn costs: entering a segment adds an intersection delay whose mean
  *     depends on the (previous, current) edge pair — captured implicitly by
  *     path-based estimates, but invisible to per-segment convolution.
  *
  * Everything is deterministic in (config, seed); the Dataset is generated
  * distributedly with `spark.range(n).flatMap`.
  */
object TrajectoryGen {

  final case class Config(
      numTrajectories: Int,
      numDrivers: Int,
      numRoutes: Int,
      days: Int = 365,
      seed: Long = 7L,
  )

  /** Route pool: shortest paths between vertex pairs biased toward distinct
    * grid corners/cities so routes traverse both city and rural zones.
    */
  def routePool(net: RoadNetwork, numRoutes: Int, seed: Long): Array[Array[Int]] = {
    val rnd = new Random(seed)
    val routes = collection.mutable.ArrayBuffer.empty[Array[Int]]
    var attempts = 0
    while (routes.length < numRoutes && attempts < numRoutes * 20) {
      attempts += 1
      val src = rnd.nextInt(net.numVertices)
      val dst = rnd.nextInt(net.numVertices)
      if (src != dst) {
        NetworkGen.shortestPath(net, src, dst) match {
          case Some(p) if p.length >= 5 && p.length <= 120 => routes += p.toArray
          case _ =>
        }
      }
    }
    require(routes.nonEmpty, "route pool empty — grid too small?")
    routes.toArray
  }

  // --- deterministic hash-based per-entity randomness --------------------

  private def mix(x: Long): Long = {
    var z = x + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
  private def unit(x: Long): Double = (mix(x) >>> 11).toDouble / (1L << 53).toDouble

  /** Persistent speed factor of a driver on a given category (≈ lognormal;
    * wider spread on main roads).
    */
  def driverFactor(user: Int, cat: Int): Double = {
    val base = 0.88 + 0.24 * unit(user * 31L + 1)
    val main = if (Category.MainRoads(cat)) 0.85 + 0.30 * unit(user * 31L + 2) else 1.0
    math.min(1.3, base * main)
  }

  /** Congestion multiplier (< 1 slows traffic) at time-of-day `todH` hours.
    * Weekday Gaussian dips at 08:00 and 16:30; city dips deeper than rural;
    * motorways dip at rush hour too.
    */
  def congestion(todH: Double, zone: Int, cat: Int, weekend: Boolean): Double = {
    if (weekend) return 0.97
    def dip(peak: Double, sigma: Double, depth: Double): Double =
      depth * math.exp(-((todH - peak) * (todH - peak)) / (2 * sigma * sigma))
    val depth =
      if (zone == Zone.City || zone == Zone.Ambiguous) 0.45
      else if (cat == Category.Motorway || cat == Category.Trunk) 0.25
      else 0.10
    math.max(0.3, 1.0 - dip(8.0, 1.2, depth) - dip(16.5, 1.5, depth))
  }

  /** Mean intersection/turn delay in seconds for the transition prev→cur
    * (0 for the first segment). City intersections cost more.
    */
  def turnMean(net: RoadNetwork, prev: Int, cur: Int): Double = {
    if (prev == 0) return 0.0
    val z = net.attr(cur).zone
    // City intersections (signals, turning queues) dominate; the strong
    // (prev, cur) dependence is what per-segment convolution cannot see —
    // the seam bias that makes fine partitionings (π1) lose accuracy.
    val scale = if (z == Zone.City || z == Zone.Ambiguous) 22.0 else 7.0
    scale * unit(prev.toLong * 1000003L + cur)
  }

  /** Travel time of one traversal, given entry time and predecessor edge. */
  def segmentTT(net: RoadNetwork, edge: Int, prev: Int, t: Long, user: Int, noiseU: Double, turnU: Double): Double = {
    val a = net.attr(edge)
    val todH = (t % DaySec).toDouble / 3600.0
    val weekend = (t / DaySec) % 7 >= 5
    val base = 3.6 * a.lengthM / a.speedLimitKmh
    val mult = driverFactor(user, a.category) * congestion(todH, a.zone, a.category, weekend)
    val noise = math.exp(0.08 * inverseNormal(noiseU))
    val turn = -turnMean(net, prev, edge) * math.log(1.0 - math.min(0.999999, turnU)) // Exp(mean)
    math.max(1.0, base / mult * noise + turn)
  }

  /** Acklam-style rational approximation of the standard normal quantile —
    * good to ~1e-4, plenty for synthetic noise.
    */
  def inverseNormal(p0: Double): Double = {
    val p = math.min(1 - 1e-12, math.max(1e-12, p0))
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
                  1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
                  6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
                  -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
                  3.754408661907416e+00)
    val pl = 0.02425
    if (p < pl) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pl) {
      val q = p - 0.5; val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      val q = math.sqrt(-2 * math.log(1 - p))
      -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    }
  }

  /** Start time-of-day in seconds: morning/evening commute peaks + uniform. */
  def startTod(u1: Double, u2: Double): Long = {
    val sec =
      if (u1 < 0.30) 8.0 * 3600 + inverseNormal(u2) * 3600
      else if (u1 < 0.60) 16.5 * 3600 + inverseNormal(u2) * 4500
      else u2 * DaySec
    math.min(DaySec - 1, math.max(0, sec.toLong))
  }

  /** Build one trajectory deterministically from its id. */
  def makeTraj(net: RoadNetwork, routes: Array[Array[Int]], cfg: Config, tid: Long): Traj = {
    val s = mix(cfg.seed * 1315423911L + tid)
    def u(k: Int): Double = unit(s + k)

    val user = (unit(s + 1) * cfg.numDrivers).toInt
    // Driver-route affinity: 70% of trips reuse one of the driver's 3
    // habitual routes, else a Zipf-ish global draw favouring popular routes.
    val route =
      if (u(2) < 0.7) {
        val pref = (unit(user * 7919L + (u(3) * 3).toInt) * routes.length).toInt
        routes(pref % routes.length)
      } else {
        val idx = (math.pow(u(4), 2.0) * routes.length).toInt
        routes(math.min(routes.length - 1, idx))
      }
    // 70% full route; 30% contiguous window of ≥ 3 segments.
    val (lo, hi) =
      if (u(5) < 0.7 || route.length <= 4) (0, route.length)
      else {
        val wlen = 3 + (u(6) * (route.length - 3)).toInt
        val start = (u(7) * (route.length - wlen)).toInt
        (start, start + wlen)
      }
    val edges = java.util.Arrays.copyOfRange(route, lo, hi)

    val day = (u(8) * cfg.days).toInt
    var t = day * DaySec + startTod(u(9), u(10))
    val times = new Array[Long](edges.length)
    val tts = new Array[Double](edges.length)
    var prev = 0
    var i = 0
    while (i < edges.length) {
      times(i) = t
      val tt = segmentTT(net, edges(i), prev, t, user, unit(s + 100 + 2 * i), unit(s + 101 + 2 * i))
      tts(i) = tt
      t += math.max(1L, math.round(tt))
      prev = edges(i)
      i += 1
    }
    Traj(tid, user, edges, times, tts)
  }

  /** Distributed generation of the traversal Dataset. */
  def traversals(spark: SparkSession, net: RoadNetwork, cfg: Config): Dataset[Traversal] = {
    import spark.implicits._
    val routes = routePool(net, cfg.numRoutes, cfg.seed)
    val bNet = spark.sparkContext.broadcast(net)
    val bRoutes = spark.sparkContext.broadcast(routes)
    spark.range(cfg.numTrajectories.toLong).flatMap { tid =>
      makeTraj(bNet.value, bRoutes.value, cfg, tid).toTraversals
    }
  }

  /** Collect the generated set into in-memory trajectories (driver side). */
  def collectTrajs(net: RoadNetwork, cfg: Config): Array[Traj] = {
    val routes = routePool(net, cfg.numRoutes, cfg.seed)
    Array.tabulate(cfg.numTrajectories)(i => makeTraj(net, routes, cfg, i.toLong))
  }
}
