package perfbench

import repro.core._
import repro.egraph._
import repro.storage.Storage
import scala.collection.mutable.ArrayBuffer

/** One extract-and-reseed round of one optimizer stage. */
final case class RoundRecord(
    stage: Int, round: Int, stats: RunStats, stop: String,
    saturateMs: Double, saturateAllocMb: Double, extractMs: Double, cost: Double)

object Replica {

  /** Why a saturation run ended, in the order `Saturate.run` tests it. */
  def stopReason(rs: RunStats, cfg: SatConfig): String =
    if (rs.saturated) "saturated"
    else if (rs.nodes >= cfg.maxNodes) "node_cap"
    else if (rs.timeMs >= cfg.timeoutMs) "timeout"
    else "iter_cap"

  val stopReasons: Seq[String] = Seq("saturated", "node_cap", "iter_cap", "timeout")

  /** `Optimizer.optimize`, rebuilt from the public calls it makes so
    * that each call gets its own span. Rounds are appended to `rounds`
    * as they finish, so a run stopped at its deadline keeps the rounds
    * it reached. Whether the replica still matches the real optimizer is
    * checked by the caller, which compares the two plans. */
  def optimize(tp: Expr, storages: Seq[Storage], extra: Map[String, Card],
               cfg: Optimizer.Config, tr: Tracer,
               rounds: ArrayBuffer[RoundRecord]): (Expr, Double) =
    tr.span("Optimizer.optimize", "core") {
      val stats1 = Optimizer.logicalStats(storages, extra)
      val (tp1, _) = tr.span("stage1", "core") {
        saturateRounds(1, tp, Rules.logical, stats1, cfg.stage1, cfg.rounds1, cfg.params,
          tr, rounds)
      }
      val composed = Optimizer.compose(tp1, storages)
      val stats2 = Optimizer.physicalStats(storages, extra)
      tr.span("stage2", "core") {
        saturateRounds(2, composed, Rules.physicalStage, stats2, cfg.stage2, cfg.rounds2,
          cfg.params, tr, rounds)
      }
    }

  /** `Optimizer.saturateRounds` with a span per call. */
  private def saturateRounds(stage: Int, e0: Expr, rules: Seq[Rule], stats: Stats,
                             cfg: SatConfig, maxRounds: Int, params: CostParams,
                             tr: Tracer, rounds: ArrayBuffer[RoundRecord]): (Expr, Double) = {
    val cm = new CostModel(stats, params)
    val symIsScalar: String => Boolean = n => stats.card(n).isScalar
    var e = e0
    var cost = Double.MaxValue
    var round = 0
    var progress = true
    while (round < maxRounds && progress) {
      round += 1
      val eg = new EGraph
      val root = tr.span("EGraph.addExpr", "egraph")(eg.addExpr(e))
      val rs = tr.span("Saturate.run", "egraph", alloc = true) {
        Saturate.run(eg, rules, cfg, symIsScalar)
      }
      val sat = tr.lastClosed
      // recorded before extraction, which may be stopped at the deadline
      rounds += RoundRecord(stage, round, rs, stopReason(rs, cfg), sat.ms,
        sat.allocBytes / 1048576.0, Double.NaN, Double.NaN)
      val (best, c) = tr.span("CostModel.extract", "core")(cm.extract(eg, root))
      rounds(rounds.length - 1) = rounds.last.copy(extractMs = tr.lastClosed.ms, cost = c)
      progress = best != e
      e = best
      cost = c
    }
    (e, cost)
  }
}
