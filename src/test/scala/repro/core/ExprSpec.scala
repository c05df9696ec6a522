package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ExprSpec extends AnyFunSuite {
  import Expr._

  private val x0 = Vr(0); private val x1 = Vr(1); private val x2 = Vr(2)

  test("shift leaves bound variables alone") {
    val e = Sum(Sym("A"), Bin(BinOp.Mul, x0, Vr(5)))
    assert(shift(e, 3) == Sum(Sym("A"), Bin(BinOp.Mul, x0, Vr(8))))
  }

  test("shift respects cutoff") {
    assert(shift(Vr(1), 2, cutoff = 2) == Vr(1))
    assert(shift(Vr(2), 2, cutoff = 2) == Vr(4))
  }

  test("shift under let adjusts depth") {
    val e = Let(x0, Bin(BinOp.Add, x0, x1))
    // free var 0 (in bound) and free var 0 (as x1 inside body) shift
    assert(shift(e, 1) == Let(Vr(1), Bin(BinOp.Add, x0, Vr(2))))
  }

  test("shift of negative delta un-nests") {
    val e = Bin(BinOp.Mul, x2, Num(3))
    assert(shift(e, -2) == Bin(BinOp.Mul, x0, Num(3)))
  }

  test("subst replaces and decrements above") {
    // (let-style) subst %0 := Sym(A) in  %0 * %1  ==> A * %0
    assert(subst(Bin(BinOp.Mul, x0, x1), 0, Sym("A")) == Bin(BinOp.Mul, Sym("A"), x0))
  }

  test("subst shifts replacement under binders") {
    val body = Sum(Sym("B"), Bin(BinOp.Mul, x0, x2)) // x2 = outer %0
    assert(subst(body, 0, Vr(7)) ==
      Sum(Sym("B"), Bin(BinOp.Mul, x0, Vr(9))))
  }

  test("subst leaves inner bound variables") {
    val body = Let(Num(1), x0)
    assert(subst(body, 0, Sym("A")) == Let(Num(1), x0))
  }

  test("freeVars through binders") {
    val e = Sum(Vr(1), Bin(BinOp.Mul, x0, Vr(4)))
    assert(freeVars(e) == Set(1, 2))
  }

  test("freeVars of closed expr empty") {
    val e = Sum(Sym("A"), Bin(BinOp.Mul, x0, x1))
    assert(freeVars(e) == Set.empty)
  }

  test("freeVars of merge binds three") {
    val e = Merge(Vr(0), Vr(1), Bin(BinOp.Mul, Vr(2), Vr(3)))
    assert(freeVars(e) == Set(0, 1))
  }

  test("occurrences counts across binders") {
    val e = Bin(BinOp.Add, Vr(2), Sum(Sym("A"), Vr(4)))
    assert(occurrences(e, 2) == 2)
    assert(occurrences(e, 0) == 0)
  }

  test("remapFree applies only to free indices") {
    val e = Sum(Vr(0), Bin(BinOp.Mul, Vr(0), Vr(3)))
    val r = remapFree(e, i => i + 10)
    assert(r == Sum(Vr(10), Bin(BinOp.Mul, Vr(0), Vr(13))))
  }

  test("substSym replaces global symbols") {
    val e = Sum(Sym("A"), Bin(BinOp.Mul, x0, Sym("beta")))
    assert(substSym(e, "A", Sym("B")) == Sum(Sym("B"), Bin(BinOp.Mul, x0, Sym("beta"))))
  }

  test("syms collects symbol names") {
    assert(syms(Sum(Sym("A"), Get(Sym("X"), x1))) == Set("A", "X"))
  }

  test("isStrictIn: multiplication is strict in either factor") {
    assert(isStrictIn(Bin(BinOp.Mul, Vr(0), Sym("c")), 0))
    assert(isStrictIn(Bin(BinOp.Mul, Sym("c"), Vr(0)), 0))
  }

  test("isStrictIn: addition requires both") {
    assert(!isStrictIn(Bin(BinOp.Add, Vr(0), Sym("c")), 0))
    assert(isStrictIn(Bin(BinOp.Add, Vr(0), Vr(0)), 0))
  }

  test("isStrictIn: through dict values and sums") {
    assert(isStrictIn(Dict(Vr(1), Bin(BinOp.Mul, Vr(0), Num(2))), 0))
    assert(isStrictIn(Sum(Sym("A"), Bin(BinOp.Mul, Vr(2), Vr(0))), 0))
    assert(!isStrictIn(Dict(Vr(0), Num(1)), 0)) // var only in key
  }

  test("isStrictIn: through let") {
    // let t = %0 * 2 in t * 5 — strict in %0
    assert(isStrictIn(Let(Bin(BinOp.Mul, Vr(0), Num(2)), Bin(BinOp.Mul, Vr(0), Num(5))), 0))
    // let t = 3 in %1 — strict (body references target through shift)
    assert(isStrictIn(Let(Num(3), Vr(1)), 0))
  }

  test("isLinearIn: single multiplicative occurrence") {
    assert(isLinearIn(Bin(BinOp.Mul, Vr(0), Sym("c")), 0))
    assert(isLinearIn(Dict(Vr(1), Bin(BinOp.Mul, Num(2), Vr(0))), 0))
  }

  test("isLinearIn: two occurrences are nonlinear") {
    assert(!isLinearIn(Bin(BinOp.Mul, Vr(0), Vr(0)), 0))
    // only +, - and * and the numerator of / are linear in their operands
    assert(!isLinearIn(Bin(BinOp.Mod, Vr(0), Num(2)), 0))
    assert(!isLinearIn(Bin(BinOp.IDiv, Vr(0), Num(2)), 0))
    assert(!isLinearIn(Bin(BinOp.EvenBits, Vr(0), Num(0)), 0))
  }

  test("isLinearIn: occurrence in key/condition position is nonlinear") {
    assert(!isLinearIn(Dict(Vr(0), Num(1)), 0))
    assert(!isLinearIn(IfThen(Bin(BinOp.Eq, Vr(0), Num(1)), Num(1)), 0))
    assert(!isLinearIn(Get(Sym("A"), Vr(0)), 0))
  }

  test("isLinearIn: linear under sum") {
    assert(isLinearIn(Sum(Sym("A"), Bin(BinOp.Mul, Vr(0), Vr(2))), 0))
  }

  test("a traversal that changes nothing returns the term itself") {
    val p = repro.meas.Table3.program(OptimizerSpec.smallWorkload, "MTTKRP", "CSF,CSR,CSC")
    val plan = Optimizer.compose(p.tp, p.storages)
    assert(mapChildren(plan)((c, _) => c) eq plan)
    assert(remapFree(plan, identity) eq plan)
    assert(substSym(plan, "absent", Num(1)) eq plan)
    // a changed child rebuilds only the nodes above it
    val coll = Sym("A")
    val e = Sum(coll, Bin(BinOp.Mul, x0, Vr(5)))
    val shifted = shift(e, 1)
    assert(shifted == Sum(coll, Bin(BinOp.Mul, x0, Vr(6))))
    assert(shifted.asInstanceOf[Sum].coll eq coll)
  }

  test("size counts nodes") {
    assert(Bin(BinOp.Mul, Num(1), Num(2)).size == 3)
    assert(Sum(Sym("A"), Dict(Vr(1), Vr(0))).size == 5)
  }

  test("pretty prints without crashing and names binders") {
    val e = Sum(Sym("A"), Dict(Vr(1), Bin(BinOp.Mul, Vr(0), Num(2))))
    val s = pretty(e)
    assert(s.contains("sum"))
    assert(s.contains("A"))
  }
}
