package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.exec._
import repro.meas.{Bench, Table3}
import repro.storage._

/** End-to-end optimizer correctness: for every kernel × storage-format
  * combination of Table 3, the naive composed plan and the optimized
  * extracted plan must evaluate to the same tensor as an independent
  * reference implementation. */
class OptimizerSpec extends AnyFunSuite {

  private val testCfg = Optimizer.Config(
    stage1 = repro.egraph.SatConfig(maxIters = 12, maxNodes = 4000, timeoutMs = 1500),
    stage2 = repro.egraph.SatConfig(maxIters = 12, maxNodes = 9000, timeoutMs = 2500),
    rounds1 = 2, rounds2 = 3)

  private val w = OptimizerSpec.smallWorkload

  private def checkProgram(p: Table3.Program): Unit = {
    val name = s"${p.kernel}/${p.format}"
    val naiveVal = Interp.run(Optimizer.compose(p.tp, p.storages), p.symtab)
    assert(Value.deepEq(naiveVal, p.reference), s"$name: naive composed plan is wrong")
    val res = Optimizer.optimize(p.tp, p.storages, p.extraCards, testCfg)
    val optVal = Interp.run(res.plan, p.symtab)
    assert(Value.deepEq(optVal, p.reference),
      s"$name: optimized plan diverges\n${Expr.pretty(res.plan)}")
  }

  // every Table 3 program, and MMM over two formats Table 3 does not try
  (Table3.programs(w) ++ Seq("DCSR,DCSR", "Hash,Hash").map(Table3.program(w, "MMM", _)))
    .foreach { p =>
      test(s"${p.kernel} optimizes correctly on ${p.formats.mkString(" x ")}")(checkProgram(p))
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
      assert(rs.stop != repro.egraph.RunStats.Timeout && rs.timeMs < sat.timeoutMs)
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
