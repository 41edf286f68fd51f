package repro.traj

/** One segment traversal — a row of the trajectory Dataset (§2.2: an element
  * of the sequence s = ⟨(e, t, TT), …⟩ plus the trajectory/driver identity).
  *
  * @param trajId trajectory id d
  * @param userId driver id u
  * @param seq    position of the segment within the trajectory (0-based)
  * @param edge   directed edge id (≥ 1)
  * @param t      entry timestamp in seconds since epoch 0
  * @param tt     traversal duration TT in seconds (> 0)
  */
final case class Traversal(trajId: Long, userId: Int, seq: Int, edge: Int, t: Long, tt: Double)

/** In-memory trajectory: (d, u, s) of §2.2 with columnar segment arrays. */
final case class Traj(id: Long, user: Int, edges: Array[Int], times: Array[Long], tts: Array[Double]) {
  def length: Int = edges.length
  def t0: Long    = times(0)

  /** Cumulative sums a_i = Σ_{j≤i} TT_j (the `a` field of the extended
    * temporal-index leaves, §4.1.3).
    */
  lazy val cum: Array[Double] = {
    val a = new Array[Double](edges.length)
    var s = 0.0; var i = 0
    while (i < edges.length) { s += tts(i); a(i) = s; i += 1 }
    a
  }

  /** Dur(tr, P) for the sub-path [i, j): sum of traversal times. */
  def durRange(i: Int, j: Int): Double = cum(j - 1) - cum(i) + tts(i)

  /** Total trip duration. */
  def totalDur: Double = cum(edges.length - 1)

  def toTraversals: Seq[Traversal] =
    edges.indices.map(i => Traversal(id, user, i, edges(i), times(i), tts(i)))
}
