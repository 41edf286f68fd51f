package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Fig 10 — temporal partitioning: index component memory (10a), histogram
  * store memory per bucket width (10b), setup time (10c).
  *
  * Shape assertions: the segment counter C grows linearly with the number of
  * partitions; the wavelet-tree memory grows with partitioning; the forest is
  * unaffected; the B+-forest is heavier than the CSS forest; the histogram
  * store grows with partitions and with finer buckets.
  */
class Fig10PartitioningBench extends SparkSpec {

  private lazy val result = Experiments.fig10(BenchData.bundle)
  private lazy val idxRows = result._1
  private lazy val histRows = result._2

  test("emit the Fig 10 tables") {
    BenchData.emit("fig10_partitioning", Experiments.fig10Lines(result))
    assert(idxRows.size == 6)
  }

  private def row(label: String) = idxRows.find(_.label == label).get

  test("Fig 10a shape: C grows linearly with the partition count") {
    val full = row("FULL")
    val weekly = row("7")
    assert(weekly.partitions > 10)
    assert(math.abs(weekly.cMiB / full.cMiB - weekly.partitions.toDouble) < 1.0)
  }

  test("Fig 10a shape: wavelet-tree memory grows with partitioning") {
    assert(row("7").wtMiB >= row("FULL").wtMiB)
  }

  test("Fig 10a shape: forest and user container are unaffected by partitioning") {
    assert(math.abs(row("7").forestMiB - row("FULL").forestMiB) / row("FULL").forestMiB < 0.05)
    assert(row("7").userMiB == row("FULL").userMiB)
  }

  test("Fig 10a shape: B+-forest is heavier than the CSS forest") {
    assert(row("BT").forestMiB > row("FULL").forestMiB)
  }

  test("Fig 10b shape: histogram store grows with partitions and finer buckets") {
    def mem(l: String, h: Int) = histRows.find(r => r._1 == l && r._2 == h).get._3
    assert(mem("7", 600) > mem("FULL", 600))
    assert(mem("FULL", 60) > mem("FULL", 600))
    assert(mem("7", 60) == histRows.map(_._3).max)
  }

  test("Fig 10c shape: setup time is roughly flat across partition sizes") {
    val times = idxRows.map(_.setupSec)
    assert(times.max < times.min * 4 + 5.0, s"setup times=$times")
  }
}
