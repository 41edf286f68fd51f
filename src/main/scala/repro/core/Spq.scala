package repro.core

/** Temporal predicate of a strict path query (§2.3): either a fixed interval
  * [ts, te) of absolute timestamps, or a periodic time-of-day interval
  * [ts, te)^R that recurs every 24 hours.
  */
sealed trait TimeInterval extends Serializable {
  def ts: Long
  def te: Long
  def sizeSec: Long = te - ts
  def contains(t: Long): Boolean
  def isPeriodic: Boolean
}

object TimeInterval {
  val DaySec = 86400L
}

final case class FixedInterval(ts: Long, te: Long) extends TimeInterval {
  def contains(t: Long): Boolean = t >= ts && t < te
  def isPeriodic: Boolean = false
}

/** Periodic window anchored at seconds-of-day `ts` (may be negative or
  * ≥ 86400 after widening/shifting — containment is computed mod 24 h).
  */
final case class PeriodicInterval(ts: Long, te: Long) extends TimeInterval {
  def contains(t: Long): Boolean = {
    val size = te - ts
    if (size >= TimeInterval.DaySec) true
    else {
      val off = java.lang.Math.floorMod(t - ts, TimeInterval.DaySec)
      off < size
    }
  }
  def isPeriodic: Boolean = true

  /** widen([ts, te)^R, α′): grow symmetrically to size α′ (Procedure 1). */
  def widen(alphaNew: Long): PeriodicInterval = {
    val d = (alphaNew - sizeSec) / 2
    PeriodicInterval(ts - d, te + (alphaNew - sizeSec - d))
  }

  /** shrink(I^R, αmin): shrink symmetrically around the centre (Procedure 1
    * line 7, applied to the two halves after a path split).
    */
  def shrink(alphaMin: Long): PeriodicInterval =
    if (sizeSec <= alphaMin) this
    else {
      val centre = ts + sizeSec / 2
      PeriodicInterval(centre - alphaMin / 2, centre - alphaMin / 2 + alphaMin)
    }

  /** Dai et al.'s shift-and-enlarge (§4.2): shift the start by the sum S of
    * previous sub-paths' minimum travel times and enlarge by the sum R of
    * their ranges.
    */
  def shiftAndEnlarge(s: Double, r: Double): PeriodicInterval =
    PeriodicInterval(ts + math.round(s), te + math.round(s) + math.round(r))
}

/** A strict path query spq(P, I, f, β) (§2.3), tracking its position
  * [startIdx, endIdx) inside the original trip path so split results can be
  * re-ordered, length-weighted, and shift-and-enlarged.
  *
  * @param user    the optional non-temporal filter predicate f (driver id)
  * @param beta    cardinality requirement β (None = retrieve all eligible)
  * @param relaxed true once Procedure 1's final fallback dropped all
  *                predicates — such queries are processed regardless of β
  */
final case class Spq(
    path: Vector[Int],
    interval: TimeInterval,
    user: Option[Int],
    beta: Option[Int],
    startIdx: Int,
    relaxed: Boolean = false,
) {
  require(path.nonEmpty, "empty path")
  require(interval.sizeSec >= 0, s"interval $interval starts after it ends")
  require(beta.forall(_ > 0), s"cardinality requirement β must be positive, got ${beta.get}")
  def length: Int = path.length
  def endIdx: Int = startIdx + path.length
}
