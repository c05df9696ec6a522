package repro.meas

import repro.core.Optimizer
import repro.egraph.RunStats

/** Table 4 reproduction: compilation metrics of the two-stage
  * equality-saturation optimization — Time (ms), Iterations, Nodes,
  * e-Classes, Memos — two rows per kernel (stage 1 = storage-independent,
  * stage 2 = storage-aware), like the paper, and the split of the time
  * over e-matching, rule application, rebuild and the representative
  * table. The programs are `Table3.table4`: STOREL's Table 3 format
  * picks. */
object Table4 {

  final case class Row(kernel: String, stage: Int, stats: RunStats)

  /** Paper's Table 4 values (per kernel: (time, iters, nodes, classes,
    * memos) for stage 1 then stage 2). */
  val paper: Map[(String, Int), (Int, Int, Int, Int, Int)] = Map(
    ("BATAX", 1) -> (445, 31, 47441, 30810, 51508),
    ("BATAX", 2) -> (1212, 59, 46456, 8043, 59010),
    ("SumMMM", 1) -> (1, 6, 42, 25, 42),
    ("SumMMM", 2) -> (52, 22, 2077, 530, 2698),
    ("MTTKRP", 1) -> (10, 18, 571, 135, 821),
    ("MTTKRP", 2) -> (239, 35, 8414, 1130, 10700),
    ("MMM", 1) -> (10, 11, 910, 123, 1242),
    ("MMM", 2) -> (1708, 61, 33058, 6479, 43407),
    ("TTM", 1) -> (11, 12, 1173, 140, 1480),
    ("TTM", 2) -> (891, 61, 15891, 3244, 23981))

  /** Both stages of every program under `Optimizer.Config()`, on
    * `Table3.defaultWorkload()`. */
  def run(): Seq[Row] =
    Table3.table4(Table3.defaultWorkload()).flatMap { p =>
      val res = Optimizer.optimize(p.tp, p.storages, p.extraCards)
      Seq(Row(p.kernel, 1, res.stage1), Row(p.kernel, 2, res.stage2))
    }

  def render(rows: Seq[Row]): String =
    Bench.table(
      Seq("Kernel", "Stage", "Time(ms)", "Iters", "Nodes", "Classes", "Memos", "Stop",
          "Match(ms)", "Apply(ms)", "Rebuild(ms)", "Repr(ms)", "Paper(T/I/N/C/M)"),
      rows.map { r =>
        val p = paper.get((r.kernel, r.stage))
          .map { case (t, i, n, c, m) => s"$t/$i/$n/$c/$m" }.getOrElse("-")
        Seq(r.kernel, r.stage.toString, Bench.ms(r.stats.timeMs),
          r.stats.iters.toString, r.stats.nodes.toString,
          r.stats.classes.toString, r.stats.memos.toString, r.stats.stop.toString,
          Bench.ms(r.stats.matchMs), Bench.ms(r.stats.applyMs), Bench.ms(r.stats.rebuildMs),
          Bench.ms(r.stats.reprMs), p)
      })
}
