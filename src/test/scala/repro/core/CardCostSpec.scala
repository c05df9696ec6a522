package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.egraph.EGraph
import repro.meas.Table3

/** Cardinality (Fig. 5) and cost (Fig. 6) model behavior. */
class CardCostSpec extends AnyFunSuite {

  private val stats = Stats(Map(
    "A" -> Card.of(1.0, (1000.0, false)),
    "M" -> Card.of(1.0, (100.0, true), (10.0, false)),
    "c" -> Card.scalar), selEq = 0.02, denseWidth = 200.0)
  private val cm = new CostModel(stats)

  test("Card.count and value navigate levels") {
    val c = Card.of(1.0, (100.0, true), (50.0, false))
    assert(c.count == 100.0)
    assert(c.value.count == 50.0)
    assert(c.value.value.isScalar)
    assert(c.totalSize == 5000.0)
  }

  test("Card toString renders the paper's n[c] shape") {
    assert(Card.of(1.0, (100.0, true)).toString.contains("[s]"))
  }

  test("Fig. 5 worked example: sum over a filter") {
    // card(sum(<i,v> in A) if (v==25) then {i -> i*3}) = 1000 * 0.02[1[s]]
    val e = Sum(Sym("A"), IfThen(Bin(BinOp.Eq, Vr(0), Num(25)),
      Dict(Vr(1), Bin(BinOp.Mul, Vr(1), Num(3)))))
    val (card, _) = cm.analyze(e)
    // 1000 iterations x selectivity 0.02 => ~20 expected entries
    assert(math.abs(card.count - 20.0) < 1e-6)
  }

  test("sum cost scales with collection size and iteration gamma") {
    val body = Bin(BinOp.Mul, Vr(0), Num(2))
    val (_, denseCost) = cm.analyze(Sum(Sym("M"), Sum(Vr(0), body)))
    val (_, smallCost) = cm.analyze(Sum(Sym("c"), Num(1)))
    assert(denseCost > smallCost * 100)
  }

  test("hash iteration is more expensive than dense per element") {
    val st = Stats(Map(
      "D" -> Card.of(1.0, (1000.0, true)),
      "H" -> Card.of(1.0, (1000.0, false))))
    val m = new CostModel(st)
    val body = Bin(BinOp.Mul, Vr(0), Num(2))
    assert(m.analyze(Sum(Sym("H"), body))._2 > m.analyze(Sum(Sym("D"), body))._2)
  }

  test("hash lookup is more expensive than dense lookup") {
    val st = Stats(Map(
      "D" -> Card.of(1.0, (1000.0, true)),
      "H" -> Card.of(1.0, (1000.0, false))))
    val m = new CostModel(st)
    assert(m.analyze(Get(Sym("H"), Num(1)))._2 > m.analyze(Get(Sym("D"), Num(1)))._2)
  }

  test("logical dicts cost more than @hash, which costs more than @dense") {
    def c(p: Phys) = cm.analyze(Dict(Num(1), Num(2), unique = false, p))._2
    assert(c(Phys.PLog) > c(Phys.PHash))
    assert(c(Phys.PHash) > c(Phys.PDense))
  }

  test("let charges materialization proportional to bound size") {
    val cheap = cm.analyze(Let(Num(1), Vr(0)))._2
    val big = cm.analyze(Let(Sym("M"), Vr(0)))._2
    assert(big > cheap + 500) // 100 x 10 elements materialized
  }

  test("dense sum accumulation pays the width floor (Fig. 8 crossover)") {
    // 5 sparse inserts into a dense array still allocates denseWidth slots
    val sparseIn = Stats(Map("S" -> Card.of(1.0, (5.0, false))), denseWidth = 200)
    val m = new CostModel(sparseIn)
    val denseOut = Sum(Sym("S"), Dict(Vr(1), Vr(0), unique = false, Phys.PDense))
    val hashOut = Sum(Sym("S"), Dict(Vr(1), Vr(0), unique = false, Phys.PHash))
    assert(m.analyze(denseOut)._2 > m.analyze(hashOut)._2,
      "sparse output: hash should win")
    val denseIn = Stats(Map("S" -> Card.of(1.0, (500.0, false))), denseWidth = 200)
    val m2 = new CostModel(denseIn)
    assert(m2.analyze(denseOut)._2 < m2.analyze(hashOut)._2,
      "dense output: array should win")
  }

  test("range cardinality uses literal bounds") {
    val (card, _) = cm.analyze(Rng(Num(0), Num(64)))
    assert(card.count == 64.0)
    assert(card.topDense)
  }

  test("non-literal segment bounds fall back to defaultSegment") {
    val st = stats.copy(defaultSegment = 7.0)
    val m = new CostModel(st)
    val (card, _) = m.analyze(SubArr(Sym("A"), Get(Sym("A"), Num(0)), Get(Sym("A"), Num(1))))
    assert(card.count == 7.0)
  }

  test("a symbol without a card is an error, not a scalar") {
    intercept[NoSuchElementException](stats.card("beta"))
    // BATAX reads `beta`, whose card comes from the caller
    val p = Table3.program(Table3.defaultWorkload(), "BATAX", "CSR,Dense")
    val e = intercept[NoSuchElementException](Optimizer.optimize(p.tp, p.storages))
    assert(e.getMessage.contains("beta"))
  }

  test("cost extraction picks the cheaper of two equal plans") {
    val eg = new EGraph
    val slow = Sum(Sym("M"), Sum(Vr(0), Bin(BinOp.Mul, Vr(0), Num(1))))
    val root = eg.addExpr(slow)
    val fast = eg.addExpr(Num(42))
    eg.union(root, fast) // pretend they are equal
    eg.rebuild()
    val (e, cost) = cm.extract(eg, root)
    assert(e == Num(42))
    assert(cost == 0.0)
  }

  test("extraction threads environments: iterating a bound row is costed") {
    val eg = new EGraph
    // sum(<i,row> in M) sum(<j,v> in row) v*2 — inner count must be 10, not 1
    val e = Sum(Sym("M"), Sum(Vr(0), Bin(BinOp.Mul, Vr(0), Num(2))))
    val root = eg.addExpr(e)
    val (_, cost) = cm.extract(eg, root)
    // 100 rows x 10 inner iterations => cost must reflect >= 1000 ops
    assert(cost > 1000)
  }

  test("extracting a term alone from a fresh e-graph costs it as analyze does") {
    val w = Table3.defaultWorkload()
    def check(e: Expr, p: Table3.Program): Unit = {
      val m = new CostModel(Optimizer.physicalStats(p.storages, p.extraCards))
      val eg = new EGraph
      assert(m.extract(eg, eg.addExpr(e))._2 == m.analyze(e)._2, Expr.pretty(e))
    }
    // the naive plan of every Table 3 program, and Table 4's optimized plans
    Table3.programs(w).foreach(p => check(Optimizer.compose(p.tp, p.storages), p))
    Table3.table4(w).foreach(p => check(Optimizer.optimize(p.tp, p.storages, p.extraCards).plan, p))
  }
}
