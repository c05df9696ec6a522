package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.exec._
import repro.kernels.Kernels
import repro.storage._

/** End-to-end optimizer correctness: for every kernel × storage-format
  * combination, the naive composed plan and the optimized extracted plan
  * must evaluate to the same tensor as an independent reference
  * implementation. */
class OptimizerSpec extends AnyFunSuite {

  private val testCfg = Optimizer.Config(
    stage1 = repro.egraph.SatConfig(maxIters = 12, maxNodes = 4000, timeoutMs = 1500),
    stage2 = repro.egraph.SatConfig(maxIters = 12, maxNodes = 9000, timeoutMs = 2500),
    rounds1 = 2, rounds2 = 3)

  private val matA = CooMat.random(20, 20, 70, seed = 1)
  private val matB = CooMat.random(20, 15, 50, seed = 2)
  private val vecX = Array.tabulate(20)(i => if (i % 3 == 0) 0.0 else 0.5 + i * 0.1)
  private val beta = 2.5
  private val tenA = Coo3.random(8, 9, 10, 80, seed = 3)
  private val matB3 = CooMat.random(12, 10, 40, seed = 4) // B(k,l) for TTM
  private val mkB = CooMat.random(9, 6, 30, seed = 5)     // B(k,j) for MTTKRP
  private val mkC = CooMat.random(10, 6, 35, seed = 6)    // C(l,j) for MTTKRP

  private def symtabOf(storages: Seq[Storage], extra: (String, Value)*): Map[String, Value] =
    storages.flatMap(_.symbols).toMap ++ extra

  private def checkKernel(name: String, tp: Expr, storages: Seq[Storage],
                          reference: Value,
                          extraVals: Map[String, Value] = Map.empty,
                          extraCards: Map[String, Card] = Map.empty): Optimizer.OptResult = {
    val symtab = storages.flatMap(_.symbols).toMap ++ extraVals
    val naive = Optimizer.compose(tp, storages)
    val naiveVal = Interp.run(naive, symtab)
    assert(Value.deepEq(naiveVal, reference),
      s"$name: naive composed plan is wrong")
    val res = Optimizer.optimize(tp, storages, extraCards, testCfg)
    val optVal = Interp.run(res.plan, symtab)
    assert(Value.deepEq(optVal, reference),
      s"$name: optimized plan diverges\n${Expr.pretty(res.plan)}")
    res
  }

  // ---- MMM ----------------------------------------------------------------

  private val mmmRef = Kernels.refMmm(matA, matB)

  private def mmmWith(fa: (String, CooMat) => Storage,
                      fb: (String, CooMat) => Storage): Optimizer.OptResult =
    checkKernel("MMM", Kernels.mmm, Seq(fa("A", matA), fb("B", matB)), mmmRef)

  test("MMM optimizes correctly on CSR x CSR")(mmmWith(Formats.csr, Formats.csr))
  test("MMM optimizes correctly on Dense x Dense")(mmmWith(Formats.denseMat, Formats.denseMat))
  test("MMM optimizes correctly on COO x COO")(mmmWith(Formats.coo, Formats.coo))
  test("MMM optimizes correctly on Trie x Trie")(mmmWith(Formats.trie, Formats.trie))
  test("MMM optimizes correctly on CSC x CSR")(mmmWith(Formats.csc, Formats.csr))
  test("MMM optimizes correctly on DCSR x DCSR")(mmmWith(Formats.dcsr, Formats.dcsr))
  test("MMM optimizes correctly on Hash x Hash")(mmmWith(Formats.dok, Formats.dok))

  // ---- ΣMMM ---------------------------------------------------------------

  private val sumRef = VNum(Kernels.refSumMmm(matA, matB))

  private def sumMmmWith(fa: (String, CooMat) => Storage,
                         fb: (String, CooMat) => Storage): Optimizer.OptResult =
    checkKernel("SumMMM", Kernels.sumMmm, Seq(fa("A", matA), fb("B", matB)), sumRef)

  test("SumMMM optimizes correctly on CSC x CSR")(sumMmmWith(Formats.csc, Formats.csr))
  test("SumMMM optimizes correctly on CSR x CSR")(sumMmmWith(Formats.csr, Formats.csr))
  test("SumMMM optimizes correctly on Dense x Dense")(sumMmmWith(Formats.denseMat, Formats.denseMat))
  test("SumMMM optimizes correctly on Trie x Trie")(sumMmmWith(Formats.trie, Formats.trie))

  // ---- BATAX --------------------------------------------------------------

  private val bataxRef = Kernels.refBatax(beta, matA, vecX)

  private def bataxWith(fa: (String, CooMat) => Storage): Optimizer.OptResult =
    checkKernel("BATAX", Kernels.batax,
      Seq(fa("A", matA), Formats.denseVec("X", vecX)), bataxRef,
      extraVals = Map("beta" -> VNum(beta)),
      extraCards = Map("beta" -> Card.scalar))

  test("BATAX optimizes correctly on CSR")(bataxWith(Formats.csr))
  test("BATAX optimizes correctly on Trie")(bataxWith(Formats.trie))
  test("BATAX optimizes correctly on Dense")(bataxWith(Formats.denseMat))
  test("BATAX optimizes correctly on DCSR")(bataxWith(Formats.dcsr))

  // ---- TTM ----------------------------------------------------------------

  private val ttmRef = Kernels.refTtm(tenA, matB3)

  test("TTM optimizes correctly on CSF x CSR") {
    checkKernel("TTM", Kernels.ttm,
      Seq(Formats.csf("A", tenA), Formats.csr("B", matB3)), ttmRef)
  }
  test("TTM optimizes correctly on CSF x CSC") {
    checkKernel("TTM", Kernels.ttm,
      Seq(Formats.csf("A", tenA), Formats.csc("B", matB3)), ttmRef)
  }

  // ---- MTTKRP -------------------------------------------------------------

  private val mttkrpRef = Kernels.refMttkrp(tenA, mkB, mkC)

  test("MTTKRP optimizes correctly on CSF x CSR x CSR") {
    checkKernel("MTTKRP", Kernels.mttkrp,
      Seq(Formats.csf("A", tenA), Formats.csr("B", mkB), Formats.csr("C", mkC)),
      mttkrpRef)
  }

  // ---- optimization quality ----------------------------------------------

  test("BATAX/CSR optimized plan beats the naive plan at runtime") {
    val a = CooMat.random(300, 300, 3000, seed = 9)
    val x = Array.tabulate(300)(i => 0.5 + (i % 7) * 0.1)
    val storages = Seq(Formats.csr("A", a), Formats.denseVec("X", x))
    val symtab = storages.flatMap(_.symbols).toMap + ("beta" -> (VNum(beta): Value))
    // full default budget: the factorization chain needs a deep search
    val res = Optimizer.optimize(Kernels.batax, storages,
      Map("beta" -> Card.scalar))
    val ref = Kernels.refBatax(beta, a, x)
    assert(Value.deepEq(Interp.run(res.plan, symtab), ref))
    def time(e: Expr): Double = {
      Interp.run(e, symtab) // warmup
      (1 to 3).map(_ => Interp.timeMs(e, symtab)._2).min
    }
    val tNaive = time(res.naive)
    val tOpt = time(res.plan)
    info(f"naive ${tNaive}%.1f ms vs optimized ${tOpt}%.1f ms")
    assert(tOpt < tNaive, "optimized plan should be faster than naive")
  }

  test("default config: BATAX/CSR on the Table 3 workload is budget-bound, not time-bound") {
    val w = repro.meas.Table3.defaultWorkload()
    val storages = Seq(Formats.csr("A", w.a), Formats.denseVec("X", w.x))
    val cards = Map("beta" -> Card.scalar)
    val cfg = Optimizer.Config()
    val res = Optimizer.optimize(Kernels.batax, storages, cards, cfg)
    assert(res.cost <= 10201, Expr.pretty(res.plan))
    // every round's time is part of its stage's total, so no round reached
    // the timeout
    Seq(res.stage1 -> cfg.stage1, res.stage2 -> cfg.stage2).foreach { case (rs, sat) =>
      assert(rs.stop != repro.egraph.RunStats.Timeout && rs.timeMs < sat.timeoutMs)
    }
    val slow = cfg.copy(stage1 = cfg.stage1.copy(timeoutMs = cfg.stage1.timeoutMs * 10),
      stage2 = cfg.stage2.copy(timeoutMs = cfg.stage2.timeoutMs * 10))
    assert(Optimizer.optimize(Kernels.batax, storages, cards, slow).plan == res.plan)
  }

  test("optimizer reports two-stage saturation stats (Table 4 shape)") {
    val res = Optimizer.optimize(Kernels.sumMmm,
      Seq(Formats.csc("A", matA), Formats.csr("B", matB)), Map.empty, testCfg)
    assert(res.stage1.iters >= 1 && res.stage2.iters >= 1)
    assert(res.stage2.nodes > 0 && res.stage2.classes > 0 && res.stage2.memos > 0)
  }

  test("optimized SumMMM cost estimate is below naive cost estimate") {
    val storages = Seq(Formats.csc("A", matA), Formats.csr("B", matB))
    val res = Optimizer.optimize(Kernels.sumMmm, storages, Map.empty, testCfg)
    val cm = new CostModel(Optimizer.physicalStats(storages))
    val naiveCost = cm.analyze(res.naive)._2
    assert(res.cost <= naiveCost * 1.01)
  }
}
