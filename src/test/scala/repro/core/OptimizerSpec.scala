package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.egraph.{Rule, RunStats, SatConfig}
import repro.exec._
import repro.meas.{Bench, Table3}
import repro.storage._

/** End-to-end optimizer correctness: for every kernel × storage-format
  * combination of Table 3, the naive composed plan and the optimized
  * extracted plan must evaluate to the same tensor as an independent
  * reference implementation, and no extract-and-reseed round may return
  * a plan costlier than its seed. */
class OptimizerSpec extends AnyFunSuite {

  private val testCfg = Optimizer.Config(
    stage1 = SatConfig(maxIters = 12, maxNodes = 4000),
    stage2 = SatConfig(maxIters = 12, maxNodes = 9000),
    rounds1 = 2, rounds2 = 3)

  private val w = OptimizerSpec.smallWorkload

  /** `Optimizer.optimize` under `testCfg`, re-run one extract-and-reseed
    * round at a time through `saturateRounds` and then floated by
    * `Optimizer.hoist`: no round may extract a plan that costs more than
    * its seed, floating may not raise the cost, the final plan may cost no
    * more than the naive plan and hold no loop-invariant loop, and it must
    * be the plan `optimize` returns and give the reference's value. */
  private def checkProgram(p: Table3.Program): Unit = {
    val name = s"${p.kernel}/${p.format}"
    val naive = Optimizer.compose(p.tp, p.storages)
    assert(Value.deepEq(Interp.run(naive, p.symtab), p.reference),
      s"$name: naive composed plan is wrong")
    def rounds(stage: Int, e0: Expr, rules: Seq[Rule], stats: Stats, sat: SatConfig,
               max: Int): (Expr, Double) = {
      val cm = new CostModel(stats, testCfg.params)
      var e = e0
      var cost = cm.analyze(e0)._2
      var round = 0
      var changed = true
      while (round < max && changed) {
        round += 1
        val seedCost = cm.analyze(e)._2
        val (next, c, _) = Optimizer.saturateRounds(e, rules, stats, sat, 1, testCfg.params)
        assert(c <= seedCost * (1 + 1e-9),
          s"$name stage $stage round $round: seed costs $seedCost, extracted plan $c")
        changed = next != e
        e = next
        cost = c
      }
      (e, cost)
    }
    val (tp1, _) = rounds(1, p.tp, Rules.logical,
      Optimizer.logicalStats(p.storages, p.extraCards), testCfg.stage1, testCfg.rounds1)
    val stats2 = Optimizer.physicalStats(p.storages, p.extraCards)
    val (extracted, extractedCost) = rounds(2, Optimizer.compose(tp1, p.storages),
      Rules.physicalStage, stats2, testCfg.stage2, testCfg.rounds2)
    val cm = new CostModel(stats2, testCfg.params)
    val (plan, cost) = Optimizer.hoist(extracted, extractedCost, cm)
    assert(cost <= extractedCost, s"$name: floating raised the cost from $extractedCost to $cost")
    assert(HoistSpec.invariantLoops(plan).isEmpty,
      s"$name: a loop-invariant loop is left in\n${Expr.pretty(plan)}")
    val naiveCost = cm.analyze(naive)._2
    assert(cost <= naiveCost * (1 + 1e-9), s"$name: plan costs $cost, naive plan $naiveCost")
    val res = Optimizer.optimize(p.tp, p.storages, p.extraCards, testCfg)
    assert(res.plan == plan && res.cost == cost,
      s"$name: optimize differs from its rounds run one at a time")
    assert(Value.deepEq(Interp.run(plan, p.symtab), p.reference),
      s"$name: optimized plan diverges\n${Expr.pretty(plan)}")
  }

  // every Table 3 program, and MMM over two formats Table 3 does not try
  (Table3.programs(w) ++ Seq("DCSR,DCSR", "Hash,Hash").map(Table3.program(w, "MMM", _)))
    .foreach { p =>
      test(s"${p.kernel} optimizes correctly on ${p.formats.mkString(" x ")}")(checkProgram(p))
    }

  // The pins are plan hashes (`PlanPinSpec.hash`) and estimated costs; a
  // change that alters a plan on purpose updates its pin.
  test("Table 3 workload: no plan computes a loop-invariant loop inside its loop") {
    val got = Table3.programs(Table3.defaultWorkload()).map { p =>
      val res = Optimizer.optimize(p.tp, p.storages, p.extraCards)
      val name = s"${p.kernel}/${p.format}"
      assert(HoistSpec.invariantLoops(res.plan).isEmpty, s"$name\n${Expr.pretty(res.plan)}")
      (name, PlanPinSpec.hash(res.plan), res.cost)
    }
    assert(got == Seq(
      ("MMM/CSR,CSR", "fc3b92091e88", 238018.13826249994),
      ("MMM/CSC,CSR", "5d60776a4fc9", 1.3089711999999998E7),
      ("MMM/Dense,Dense", "023fad038fd1", 1.0283550100000001E8),
      ("MMM/COO,COO", "0cf7b0ed916b", 1.33990675E7),
      ("MMM/Trie,Trie", "ef6f88f743e4", 1086621.25),
      ("SumMMM/CSC,CSR", "20993da778f6", 1152400.75),
      ("SumMMM/CSR,CSR", "f8d4c9e53010", 22342.198074999997),
      ("SumMMM/Dense,Dense", "7f8652aec93e", 786601.0),
      ("SumMMM/Trie,Trie", "afdc6e4cacc0", 28125.0),
      ("BATAX/CSR,Dense", "986bb6b3d7f4", 10201.0),
      ("BATAX/Trie,Dense", "0c632ae842e4", 137625.0),
      ("BATAX/Dense,Dense", "9e73a175a176", 990751.0),
      ("BATAX/DCSR,Dense", "27d2073922c6", 75.47568340750158),
      ("TTM/CSF,CSC", "e549996bdb65", 4141451.864447999),
      ("TTM/CSF,CSR", "fe791c9839c2", 1118844.4451279999),
      ("MTTKRP/CSF,CSR,CSC", "c063cd4a8eff", 230972.47981130646),
      ("MTTKRP/CSF,CSR,CSR", "b09b05ef39d7", 516274.7794853725)))
  }

  // The statistics' widths come from `widthOf`'s walk over the TSMs, and
  // the symbols and free variables from `Expr`'s; pinned per program.
  test("statistics, symbols and free variables of every Table 3 program") {
    val pinned = Seq(
      ("MMM/CSR,CSR", 20.0, 3.0, "A_idx2 A_pos2 A_val B_idx2 B_pos2 B_val", 61),
      ("MMM/CSC,CSR", 20.0, 3.0, "A_idx2 A_pos2 A_val B_idx2 B_pos2 B_val", 61),
      ("MMM/Dense,Dense", 20.0, 17.5, "A_V B_V", 55),
      ("MMM/COO,COO", 70.0, 1.0, "A_idx1 A_idx2 A_val B_idx1 B_idx2 B_val", 47),
      ("MMM/Trie,Trie", 20.0, 3.0657894736842106, "A_T B_T", 35),
      ("SumMMM/CSC,CSR", 20.0, 3.0, "A_idx2 A_pos2 A_val B_idx2 B_pos2 B_val", 57),
      ("SumMMM/CSR,CSR", 20.0, 3.0, "A_idx2 A_pos2 A_val B_idx2 B_pos2 B_val", 57),
      ("SumMMM/Dense,Dense", 20.0, 17.5, "A_V B_V", 51),
      ("SumMMM/Trie,Trie", 20.0, 3.0657894736842106, "A_T B_T", 31),
      ("BATAX/CSR,Dense", 20.0, 2.25, "A_idx2 A_pos2 A_val X_V beta", 38),
      ("BATAX/Trie,Dense", 20.0, 2.25, "A_T X_V beta", 25),
      ("BATAX/Dense,Dense", 20.0, 10.5, "A_V X_V beta", 35),
      ("BATAX/DCSR,Dense", 20.0, 2.25, "A_idx1 A_idx2 A_pos1 A_pos2 A_val X_V beta", 43),
      ("TTM/CSF,CSC", 12.0, 5.0625,
        "A_idx1 A_idx2 A_idx3 A_pos1 A_pos2 A_pos3 A_val B_idx2 B_pos2 B_val", 83),
      ("TTM/CSF,CSR", 12.0, 4.729166666666667,
        "A_idx1 A_idx2 A_idx3 A_pos1 A_pos2 A_pos3 A_val B_idx2 B_pos2 B_val", 83),
      ("MTTKRP/CSF,CSR,CSC", 10.0, 5.097222222222222, "A_idx1 A_idx2 A_idx3 A_pos1 A_pos2 " +
        "A_pos3 A_val B_idx2 B_pos2 B_val C_idx2 C_pos2 C_val", 116),
      ("MTTKRP/CSF,CSR,CSR", 10.0, 4.319444444444445, "A_idx1 A_idx2 A_idx3 A_pos1 A_pos2 " +
        "A_pos3 A_val B_idx2 B_pos2 B_val C_idx2 C_pos2 C_val", 116))
    val got = Table3.programs(w).map { p =>
      val logical = Optimizer.logicalStats(p.storages, p.extraCards)
      val physical = Optimizer.physicalStats(p.storages, p.extraCards)
      assert(physical.denseWidth == logical.denseWidth, p.format)
      val plan = Optimizer.compose(p.tp, p.storages)
      assert(Expr.freeVars(plan).isEmpty, p.format)
      (s"${p.kernel}/${p.format}", logical.denseWidth, physical.defaultSegment,
        Expr.syms(plan).toSeq.sorted.mkString(" "), plan.size)
    }
    assert(got == pinned)
  }

  // ---- optimization quality ----------------------------------------------

  test("BATAX/CSR optimized plan beats the naive plan at runtime") {
    val p = Table3.program(w.copy(a = CooMat.random(300, 300, 3000, seed = 9),
      x = Array.tabulate(300)(i => 0.5 + (i % 7) * 0.1)), "BATAX", "CSR,Dense")
    val symtab = p.symtab
    // full default budget: the factorization chain needs a deep search
    val res = Optimizer.optimize(p.tp, p.storages, p.extraCards)
    assert(Value.deepEq(Interp.run(res.plan, symtab), p.reference))
    def time(e: Expr): Double = Bench.timeMedian(3)(Interp.run(e, symtab))._2
    val tNaive = time(res.naive)
    val tOpt = time(res.plan)
    info(f"naive ${tNaive}%.1f ms vs optimized ${tOpt}%.1f ms")
    assert(tOpt < tNaive, "optimized plan should be faster than naive")
  }

  test("default config: BATAX/CSR on the Table 3 workload is budget-bound, not time-bound") {
    val p = Table3.program(Table3.defaultWorkload(), "BATAX", "CSR,Dense")
    val cfg = Optimizer.Config()
    val res = Optimizer.optimize(p.tp, p.storages, p.extraCards, cfg)
    assert(res.cost <= 10201, Expr.pretty(res.plan))
    // every round's time is part of its stage's total, so no round reached
    // the timeout
    Seq(res.stage1 -> cfg.stage1, res.stage2 -> cfg.stage2).foreach { case (rs, sat) =>
      assert(rs.stop != RunStats.Timeout && rs.timeMs < sat.timeoutMs)
    }
    val slow = cfg.copy(stage1 = cfg.stage1.copy(timeoutMs = cfg.stage1.timeoutMs * 10),
      stage2 = cfg.stage2.copy(timeoutMs = cfg.stage2.timeoutMs * 10))
    assert(Optimizer.optimize(p.tp, p.storages, p.extraCards, slow).plan == res.plan)
  }

  test("optimizer reports two-stage saturation stats (Table 4 shape)") {
    val p = Table3.program(w, "SumMMM", "CSC,CSR")
    val res = Optimizer.optimize(p.tp, p.storages, p.extraCards, testCfg)
    assert(res.stage1.iters >= 1 && res.stage2.iters >= 1)
    assert(res.stage2.nodes > 0 && res.stage2.classes > 0 && res.stage2.memos > 0)
  }

  test("optimized SumMMM cost estimate is below naive cost estimate") {
    val p = Table3.program(w, "SumMMM", "CSC,CSR")
    val res = Optimizer.optimize(p.tp, p.storages, p.extraCards, testCfg)
    val cm = new CostModel(Optimizer.physicalStats(p.storages))
    val naiveCost = cm.analyze(res.naive)._2
    assert(res.cost <= naiveCost * 1.01)
  }
}

object OptimizerSpec {
  /** Small operands for every Table 3 kernel, quick to optimize and run. */
  val smallWorkload: Table3.Workload = Table3.Workload(
    a = CooMat.random(20, 20, 70, seed = 1),
    b = CooMat.random(20, 15, 50, seed = 2),
    x = Array.tabulate(20)(i => if (i % 3 == 0) 0.0 else 0.5 + i * 0.1),
    beta = 2.5,
    a3 = Coo3.random(8, 9, 10, 80, seed = 3),
    bTtm = CooMat.random(12, 10, 40, seed = 4), // B(k,l) for TTM
    bMk = CooMat.random(9, 6, 30, seed = 5),    // B(k,j) for MTTKRP
    cMk = CooMat.random(10, 6, 35, seed = 6))   // C(l,j) for MTTKRP
}
