package repro.core

import repro.egraph._
import repro.storage.Storage

/** The STOREL optimization pipeline (Fig. 2 + Sec. 6.4): compose the
  * Tensor Program with the Tensor Storage Mappings, then run equality
  * saturation in **two stages** — storage-independent rules over the TP
  * alone, then the full rule set (including physical lowering) over the
  * composed plan. Each stage runs bounded saturation, extracts the
  * cheapest plan with the cost model, and reseeds a fresh e-graph from
  * it (the paper's staging, plus reseeding to keep the search bounded).
  * Last, [[Hoist]] floats loop-invariant loops out of the final plan.
  */
object Optimizer {

  /** Both stages search under [[SatConfig]]'s budget by default. */
  final case class Config(
      stage1: SatConfig = SatConfig(),
      stage2: SatConfig = SatConfig(),
      rounds1: Int = 2,
      rounds2: Int = 3,
      params: CostParams = CostParams())

  final case class OptResult(
      naive: Expr,
      plan: Expr,
      cost: Double,
      stage1: RunStats,
      stage2: RunStats)

  /** Substitute each tensor's TSM for its logical name (Sec. 5.1's
    * naive plan, inlined rather than let-bound: TSMs are closed). */
  def compose(tp: Expr, storages: Seq[Storage]): Expr =
    storages.foldLeft(tp)((e, st) => Expr.substSym(e, st.tensor, st.tsm))

  /** Estimated dimension width for freshly built dense dictionaries:
    * the largest cardinality level or literal range bound in play. */
  private def widthOf(storages: Seq[Storage]): Double = {
    val candidates = storages.flatMap(_.logicalCard.levels.map(_.n)).toBuffer
    def rangeLits(e: Expr): Expr = e match {
      case Rng(Num(a), Num(b)) => candidates += b - a; e
      case _ => Expr.mapChildren(e)((c, _) => rangeLits(c))
    }
    storages.foreach(st => rangeLits(st.tsm))
    if (candidates.isEmpty) 256.0 else candidates.max
  }

  /** Stage-1 statistics: logical tensor cardinalities, keyed by tensor
    * name (the paper's DBA-provided stats). */
  def logicalStats(storages: Seq[Storage], extra: Map[String, Card] = Map.empty): Stats =
    Stats(storages.map(st => st.tensor -> st.logicalCard).toMap ++ extra,
      denseWidth = widthOf(storages))

  /** Stage-2 statistics: physical symbol cardinalities plus the average
    * segment length for non-literal ranges. */
  def physicalStats(storages: Seq[Storage], extra: Map[String, Card] = Map.empty): Stats = {
    val segs = storages.map(_.avgSegment).filter(_ > 0)
    Stats(
      storages.flatMap(_.symCards).toMap ++ extra,
      defaultSegment = if (segs.isEmpty) 8.0 else segs.sum / segs.length,
      denseWidth = widthOf(storages))
  }

  /** Bounded saturation with extract-and-reseed rounds. */
  def saturateRounds(e0: Expr, rules: Seq[Rule], stats: Stats,
                     cfg: SatConfig, rounds: Int,
                     params: CostParams = CostParams()): (Expr, Double, RunStats) = {
    val cm = new CostModel(stats, params)
    val symIsScalar: String => Boolean = n => stats.card(n).isScalar
    var e = e0
    var cost = Double.MaxValue
    var agg = RunStats(0, 0, 0, 0, 0)
    var round = 0
    var progress = true
    while (round < rounds && progress) {
      round += 1
      val eg = new EGraph
      val root = eg.addExpr(e)
      val rs = Saturate.run(eg, rules, cfg, symIsScalar)
      val (best, c) = cm.extract(eg, root)
      agg += rs
      progress = best != e
      e = best
      cost = c
    }
    (e, cost, agg)
  }

  /** Full pipeline for one tensor program over its storages. `extra`
    * supplies cards for free scalar symbols (e.g. `beta`). */
  def optimize(tp: Expr, storages: Seq[Storage],
               extra: Map[String, Card] = Map.empty,
               cfg: Config = Config()): OptResult = {
    val naive = compose(tp, storages)
    // Stage 1: storage-independent optimization of the TP alone.
    val (tp1, _, rs1) = saturateRounds(
      tp, Rules.logical, logicalStats(storages, extra), cfg.stage1, cfg.rounds1,
      cfg.params)
    // Stage 2: compose with the TSMs; full rule set incl. physical.
    val composed = compose(tp1, storages)
    val stats2 = physicalStats(storages, extra)
    val (extracted, extractedCost, rs2) = saturateRounds(
      composed, Rules.physicalStage, stats2, cfg.stage2, cfg.rounds2, cfg.params)
    // Last: float loop-invariant loops out of the plan.
    val (plan, cost) = hoist(extracted, extractedCost, new CostModel(stats2, cfg.params))
    OptResult(naive, plan, cost, rs1, rs2)
  }

  /** `plan`, extracted at `cost`, with its loop-invariant loops floated
    * out by [[Hoist]], if `cm` costs that no higher; and the cost of the
    * plan returned. Saturation cannot find these plans: the one
    * loop-invariant rule, LICM, matches only an invariant `sum` that
    * multiplies a dictionary entry's value. Nor does this step make the
    * rule redundant: without it, `compile-table4`'s BATAX/CSR,Dense plan
    * costs 17,401 instead of 10,201 and runs about 3x slower. */
  def hoist(plan: Expr, cost: Double, cm: CostModel): (Expr, Double) = {
    val floated = Hoist(plan)
    if (floated eq plan) (plan, cost)
    else {
      val c = cm.analyze(floated)._2
      if (c <= cost) (floated, c) else (plan, cost)
    }
  }
}
