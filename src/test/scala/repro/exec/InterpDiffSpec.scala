package repro.exec

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.Sugar._
import repro.egraph.SatConfig
import repro.meas.Table3
import repro.storage._
import scala.collection.mutable.LongMap
import scala.util.{Failure, Success, Try}

/** Differential oracle: the compiled engine (`Interp`) must give what the
  * tree-walker (`TreeInterp`) gives, up to `Value.deepEq`, and fail with
  * the same exception type where the tree-walker fails. */
class InterpDiffSpec extends AnyFunSuite {

  private def same(label: String, e: Expr, st: collection.Map[String, Value]): Unit =
    (Try(TreeInterp.run(e, st)), Try(Interp.run(e, st))) match {
      case (Success(want), Success(got)) =>
        assert(Value.deepEq(got, want),
          s"$label: compiled ${Value.toCoo(got).take(5)} vs tree-walked ${Value.toCoo(want).take(5)}")
      case (Failure(want), Failure(got)) =>
        assert(got.getClass == want.getClass, s"$label: compiled threw $got, tree-walker $want")
      case (want, got) => fail(s"$label: compiled gave $got, tree-walker $want")
    }

  private def sameS(label: String, e: Sugar.S, st: (String, Value)*): Unit =
    same(label, compile(e), st.toMap)

  // ---- every Table 3 program: naive and optimized plans ------------------

  private val w = repro.core.OptimizerSpec.smallWorkload
  private val smallBudget = {
    val sat = SatConfig(maxIters = 8, maxNodes = 1500, timeoutMs = 60000)
    Optimizer.Config(stage1 = sat, stage2 = sat, rounds1 = 1, rounds2 = 1)
  }

  Table3.programs(w).foreach { p =>
    val name = s"${p.kernel}/${p.format}"
    test(s"$name: naive and optimized plans run as tree-walked") {
      same(s"$name naive", Optimizer.compose(p.tp, p.storages), p.symtab)
      val plan = Optimizer.optimize(p.tp, p.storages, p.extraCards, smallBudget).plan
      same(s"$name optimized\n${Expr.pretty(plan)}", plan, p.symtab)
    }
  }

  // ---- every storage mapping of TensorsSpec ------------------------------

  test("every TensorsSpec TSM runs as tree-walked") {
    val mat = CooMat.random(17, 23, 60, seed = 42)
    val fig1 = CooMat(3, 4, Array((0, 0, 6.0), (0, 2, 9.0), (0, 3, 8.0), (2, 0, 5.0), (2, 3, 7.0)))
    val n = 4
    val storages = Seq(
      Formats.denseMat("A", mat), Formats.csr("A", mat), Formats.csc("A", mat),
      Formats.dcsr("A", mat), Formats.coo("A", mat), Formats.dok("A", mat), Formats.trie("A", mat),
      Formats.dcsr("B", CooMat(5, 4, Array((0, 1, 2.0), (0, 3, 1.0), (3, 0, 4.0)))),
      Formats.csr("C", fig1), Formats.dcsr("C", fig1), Formats.csc("C", fig1),
      Formats.dcsr("E", CooMat(3, 3, Array.empty)),
      Formats.denseVec("X", Array(1.0, 0.0, 3.0)),
      Formats.sparseVec("X", Array((2, 5.0), (7, -1.0))),
      Formats.csf("T", Coo3.random(7, 9, 11, 50, seed = 7)),
      Formats.csf("T", Coo3(2, 2, 3, Array((0, 0, 1, 1.0), (0, 1, 0, 2.0), (1, 1, 2, 3.0)))),
      Formats.lowerTriangular("L", 5, Array.tabulate(15)(i => (i + 1).toDouble)),
      Formats.band("B", n, Array.tabulate(3 * n - 2)(i => (i + 1).toDouble)),
      Formats.zOrder("Z", n, Array.tabulate(n * n)(i => (i % 5).toDouble)))
    storages.foreach(st => same(st.format, st.tsm, st.symbols))
  }

  // ---- operators -----------------------------------------------------------

  private def denseVec(xs: Double*): Value = new VDenseN(xs.toArray)
  private def hashVec(kvs: (Long, Double)*): Value = new VHashN(LongMap.from(kvs))

  test("subtraction, && and || run as tree-walked") {
    sameS("2 - 3", SBin(BinOp.Sub, 2, 3))
    sameS("dict - dict", SBin(BinOp.Sub, "V", "W"),
      "V" -> denseVec(3, 0, 5), "W" -> hashVec(0L -> 1.0, 2L -> 5.0, 3L -> 2.0))
    sameS("scalar - dict", SBin(BinOp.Sub, 2, "W"), "W" -> hashVec(0L -> 1.0))
    for (x <- Seq(0, 1); y <- Seq(0, 1)) {
      sameS(s"$x && $y", SBin(BinOp.And, x, y))
      sameS(s"$x || $y", SBin(BinOp.Or, x, y))
    }
    // a dictionary operand is true; the right operand is not evaluated
    // when the left one decides
    sameS("dict && 1", SBin(BinOp.And, "V", 1), "V" -> hashVec(1L -> 2.0))
    sameS("0 && unbound", SBin(BinOp.And, 0, "nope"))
    sameS("1 || unbound", SBin(BinOp.Or, 1, "nope"))
    sameS("filtered sum with &&",
      sum(gen("i")("x", "V"))(iff(SBin(BinOp.And, SBin(BinOp.Gt, v("x"), 0), SBin(BinOp.Lt, v("i"), 2)))(
        dict(v("i"))(SBin(BinOp.Sub, v("x"), 1)))), "V" -> denseVec(1, -2, 3, 4))
  }

  test("merge runs as tree-walked") {
    val st = Map[String, Value](
      "L" -> new VDenseL(Array(1L, 3L, 5L)), "R" -> new VDenseL(Array(2L, 3L, 5L, 9L)))
    same("merge values", Merge(Sym("L"), Sym("R"), Vr(0)), st)
    same("merge positions", Merge(Sym("L"), Sym("R"),
      Bin(BinOp.Add, Bin(BinOp.Mul, Vr(2), Num(10)), Vr(1))), st)
    same("merge into a dictionary", Merge(Sym("L"), Sym("R"), Dict(Vr(2), Vr(0), phys = Phys.PDense)), st)
  }

  test("dictionary values, views and nested tries run as tree-walked") {
    val trie = new VHashV(LongMap(0L -> hashVec(1L -> 2.0), 3L -> hashVec(0L -> 1.0, 2L -> 4.0)))
    val st = Seq("V" -> denseVec(7, 0, 8), "T" -> trie, "c" -> VNum(2))
    sameS("scale a trie", mul("c", "T"), st: _*)
    sameS("trie times dict", mul("T", "V"), st: _*)
    sameS("dict plus trie row", add("V", get("T", 3)), st: _*)
    sameS("view", sub(v("V"), 1, 3), st: _*)
    sameS("singleton", dict(2)(v("c")), st: _*)
    sameS("range", rng(1, 4), st: _*)
    sameS("sum over a trie", sum(gen("i")("r", "T"))(sum(gen("j")("x", v("r")))(
      dict(v("j"), v("i"))(mul(v("x"), v("c"))))), st: _*)
    sameS("let-bound dictionary", let("d" -> sum(gen("i")("x", "V"))(dict(v("i"))(v("x"))))(
      sum(gen("i")("x", v("d")))(mul(v("x"), get(v("d"), v("i"))))), st: _*)
    sameS("sum over a sum", sum(gen("k")("x", sum(gen("i")("y", "V"))(dict(SBin(BinOp.Mod, v("i"), 2))(v("y")))))(
      dict(v("k"))(v("x"))), st: _*)
    // the inner sum is dense; with W1 every entry cancels, so nothing is
    // iterated, and with W2 the zero slot is iterated as dense slots are
    val overDense = sum(gen("j")("z", "V"))(sum(gen("k")("x",
      sum(gen("i")("y", "W"))(SDict(List(SBin(BinOp.Mod, v("i"), 2)), mul(v("y"), v("z")), phys = Phys.PDense))))(
      dict(v("k"), v("j"))(add(v("x"), 1))))
    sameS("sum over a cancelled dense sum, in a loop", overDense, st :+ ("W" -> denseVec(2, 3, -2, -3)): _*)
    sameS("sum over a dense sum, in a loop", overDense, st :+ ("W" -> denseVec(2, 3, -2, 4)): _*)
  }

  // ---- error paths ---------------------------------------------------------

  private def throwsAlike(label: String, e: Sugar.S, st: (String, Value)*): Unit = {
    assert(Try(TreeInterp.run(compile(e), st.toMap)).isFailure, s"$label: the tree-walker succeeded")
    sameS(label, e, st: _*)
  }

  test("error paths throw what the tree-walker throws") {
    val st = Seq("V" -> denseVec(1.5, 2), "c" -> VNum(3))
    throwsAlike("unbound symbol", add(1, "nope"), st: _*)
    throwsAlike("unbound symbol in a loop", sum(gen("i")("x", "V"))(mul(v("x"), "nope")), st: _*)
    throwsAlike("lookup on a number", get(2, 0), st: _*)
    throwsAlike("lookup on a scalar symbol", get("c", 0), st: _*)
    throwsAlike("sum over a number", sum(gen("i")("x", 3))(v("x")), st: _*)
    throwsAlike("sum over a scalar symbol", sum(gen("i")("x", "c"))(dict(v("i"))(v("x"))), st: _*)
    throwsAlike("non-integer key", dict(1.5)(1), st: _*)
    throwsAlike("non-integer lookup", get("V", 0.5), st: _*)
    throwsAlike("non-integer key in a loop", sum(gen("i")("x", "V"))(dict(v("x"))(1)), st: _*)
    throwsAlike("non-integer range bound", sum(gen("i")("x", rng(0, 2.5)))(v("x")), st: _*)
    throwsAlike("number as a dictionary operand", add(1, "V"), st: _*)
    throwsAlike("dictionary as a number", SBin(BinOp.Div, "V", 2), st: _*)
  }
}
