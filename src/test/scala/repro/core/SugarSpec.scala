package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Sugar._

class SugarSpec extends AnyFunSuite {

  test("reference resolves innermost binding") {
    val e = compile(sum(gen("k")("v", "A"))(v("v")))
    assert(e == Sum(Sym("A"), Vr(0)))
  }

  test("key variable is index 1, value index 0") {
    val e = compile(sum(gen("k")("x", "A"))(SBin(BinOp.Mul, v("k"), v("x"))))
    assert(e == Sum(Sym("A"), Bin(BinOp.Mul, Vr(1), Vr(0))))
  }

  test("unbound names become global symbols") {
    val e = compile(SBin(BinOp.Add, v("beta"), 1))
    assert(e == Bin(BinOp.Add, Sym("beta"), Num(1)))
  }

  test("multi-generator sum desugars to nested sums (Table 1)") {
    val e = compile(sum(gen("i")("a", "A"), gen("j")("b", "B"))(v("a")))
    e match {
      case Sum(Sym("A"), Sum(Sym("B"), Vr(2))) => ()
      case other => fail(s"unexpected: $other")
    }
  }

  test("tuple-key generator desugars via curry (Table 1)") {
    val e = compile(sum(gen("i", "j")("a", "A"))(v("a")))
    e match {
      // sum(<i,w> in A) sum(<j,a> in w) a
      case Sum(Sym("A"), Sum(Vr(0), Vr(0))) => ()
      case other => fail(s"unexpected: $other")
    }
  }

  test("repeated variable across generators becomes equality (Table 1)") {
    val e = compile(sum(gen("k")("a", "A"), gen("k")("b", "B"))(v("a")))
    e match {
      case Sum(Sym("A"), Sum(Sym("B"), IfThen(Bin(BinOp.Eq, Vr(1), Vr(3)), Vr(2)))) => ()
      case other => fail(s"unexpected: $other")
    }
  }

  test("underscore keys are ignored, not joined") {
    val e = compile(sum(gen("_")("a", "A"), gen("_")("b", "B"))(v("b")))
    e match {
      case Sum(Sym("A"), Sum(Sym("B"), Vr(0))) => ()
      case other => fail(s"unexpected: $other")
    }
  }

  test("tuple dict keys curry {(i,j) -> v} to {i -> {j -> v}}") {
    val e = compile(sum(gen("i")("x", "A"))(dict(v("i"), v("i"))(v("x"))))
    e match {
      case Sum(Sym("A"), Dict(Vr(1), Dict(Vr(1), Vr(0), _, _), _, _)) => ()
      case other => fail(s"unexpected: $other")
    }
  }

  test("unique flags attach per dict level") {
    val e = compile(sum(gen("i")("x", "A"))(
      SDict(List(v("i"), n(3)), v("x"), unique = List(true, false))))
    e match {
      case Sum(Sym("A"), Dict(Vr(1), Dict(Num(3.0), Vr(0), false, _), true, _)) => ()
      case other => fail(s"unexpected: $other")
    }
  }

  test("curried lookup e(i,j) = e(i)(j) (Table 1)") {
    val e = compile(get(v("A"), 1, 2))
    assert(e == Get(Get(Sym("A"), Num(1)), Num(2)))
  }

  test("multi-binding let desugars to nested lets (Table 1)") {
    val e = compile(let("x" -> n(1), "y" -> n(2))(SBin(BinOp.Add, v("x"), v("y"))))
    assert(e == Let(Num(1), Let(Num(2), Bin(BinOp.Add, Vr(1), Vr(0)))))
  }

  test("range and subarray compile") {
    assert(compile(rng(0, 5)) == Rng(Num(0), Num(5)))
    assert(compile(sub(v("A"), 1, 3)) == SubArr(Sym("A"), Num(1), Num(3)))
  }

  test("kernels compile to closed expressions") {
    import repro.kernels.Kernels
    Kernels.all.foreach { case (name, e) =>
      assert(Expr.freeVars(e).isEmpty, s"$name has free variables")
    }
  }

  test("MMM kernel has the expected join structure") {
    val e = repro.kernels.Kernels.mmm
    // sum over A rows, A cols, B rows (joined on k), B cols
    assert(Expr.syms(e) == Set("A", "B"))
    var sums = 0
    def count(x: Expr): Expr = {
      if (x.isInstanceOf[Sum]) sums += 1
      Expr.mapChildren(x)((c, _) => count(c))
    }
    count(e)
    assert(sums == 4)
  }
}
