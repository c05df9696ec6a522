package repro.exec

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.Sugar._
import scala.collection.mutable.LongMap

class InterpSpec extends AnyFunSuite {

  private def run(e: Sugar.S, syms: (String, Value)*): Value =
    Interp.run(compile(e), syms.toMap)

  private def num(v: Value): Double = Value.asNum(v)

  private def denseVec(xs: Double*): Value = new VDenseN(xs.toArray)
  private def hashVec(kvs: (Long, Double)*): Value =
    new VHashN(LongMap.from(kvs))

  test("scalar arithmetic") {
    assert(num(run(SBin(BinOp.Add, 2, 3))) == 5.0)
    assert(num(run(SBin(BinOp.Mul, 2, 3))) == 6.0)
    assert(num(run(SBin(BinOp.Sub, 2, 3))) == -1.0)
    assert(num(run(SBin(BinOp.Div, 6, 3))) == 2.0)
    assert(num(run(SBin(BinOp.Mod, 7, 3))) == 1.0)
    assert(num(run(SBin(BinOp.IDiv, 7, 2))) == 3.0)
    // dictionaries subtract pointwise; entries that cancel are dropped
    val diff = run(SBin(BinOp.Sub, "V", "W"),
      "V" -> denseVec(3, 0, 5), "W" -> hashVec(0L -> 1.0, 2L -> 5.0, 3L -> 2.0))
    assert(Value.deepEq(diff, hashVec(0L -> 2.0, 3L -> -2.0)), Value.toCoo(diff))
  }

  test("comparisons return 0/1") {
    assert(num(run(SBin(BinOp.Eq, 2, 2))) == 1.0)
    assert(num(run(SBin(BinOp.Eq, 2, 3))) == 0.0)
    assert(num(run(SBin(BinOp.Lt, 2, 3))) == 1.0)
    assert(num(run(SBin(BinOp.Ge, 2, 3))) == 0.0)
  }

  test("logicals short-circuit") {
    assert(num(run(SBin(BinOp.And, 1, 1))) == 1.0)
    assert(num(run(SBin(BinOp.And, 0, 1))) == 0.0)
    assert(num(run(SBin(BinOp.Or, 0, 1))) == 1.0)
  }

  test("evenbits/oddbits invert bit interleaving") {
    // d = interleave(i=5, j=3): i bits at even positions, j at odd
    val i = 5L; val j = 3L
    var d = 0L
    (0 until 8).foreach { b =>
      d |= ((i >> b) & 1) << (2 * b)
      d |= ((j >> b) & 1) << (2 * b + 1)
    }
    assert(num(run(SBin(BinOp.EvenBits, d.toDouble, 0))) == i.toDouble)
    assert(num(run(SBin(BinOp.OddBits, d.toDouble, 0))) == j.toDouble)
  }

  test("if returns zero on false") {
    assert(run(iff(SBin(BinOp.Eq, 1, 2))(5)) == VZero)
    assert(num(run(iff(SBin(BinOp.Eq, 2, 2))(5))) == 5.0)
  }

  test("let binds") {
    assert(num(run(let("x" -> 3)(SBin(BinOp.Mul, v("x"), v("x"))))) == 9.0)
  }

  test("range is the identity dictionary") {
    val r = run(get(rng(2, 5), 3))
    assert(num(r) == 3.0)
    assert(run(get(rng(2, 5), 7)) == VZero)
  }

  test("sum over range") {
    assert(num(run(sum(gen("i")("x", rng(0, 5)))(v("x")))) == 10.0)
    assert(num(run(sum(gen("i")("x", rng(0, 5)))(v("i")))) == 10.0)
  }

  test("sum over dense vector visits all slots") {
    val e = sum(gen("i")("x", "V"))(n(1))
    assert(num(run(e, "V" -> denseVec(1, 0, 2))) == 3.0)
  }

  test("sum over hash visits only stored entries") {
    val e = sum(gen("i")("x", "V"))(n(1))
    assert(num(run(e, "V" -> hashVec(0L -> 1.0, 7L -> 2.0))) == 2.0)
  }

  test("dict construction groups by key (semiring addition)") {
    // sum over [10, 20, 30] emitting {i % 2 -> x}
    val e = sum(gen("i")("x", "V"))(dict(SBin(BinOp.Mod, v("i"), 2))(v("x")))
    val r = run(e, "V" -> denseVec(10, 20, 30))
    val d = Value.asDict(r)
    assert(num(d.get(0)) == 40.0)
    assert(num(d.get(1)) == 20.0)
  }

  test("vector dot product (SDQL example)") {
    val e = sum(gen("i")("u", "U"), gen("i")("w", "W"))(mul(v("u"), v("w")))
    val r = run(e, "U" -> denseVec(1, 2, 3), "W" -> denseVec(4, 5, 6))
    assert(num(r) == 32.0)
  }

  test("element-wise product keeps the key (SDQL example)") {
    val e = sum(gen("i")("u", "U"), gen("i")("w", "W"))(
      dict(v("i"))(mul(v("u"), v("w"))))
    val d = Value.asDict(run(e, "U" -> denseVec(1, 2), "W" -> denseVec(4, 5)))
    assert(num(d.get(0)) == 4.0)
    assert(num(d.get(1)) == 10.0)
  }

  test("filtering query from Sec. 2 (remove negatives, times 5)") {
    val e = sum(gen("i")("x", "V"))(iff(SBin(BinOp.Gt, v("x"), 0))(
      dict(v("i"))(mul(5, v("x")))))
    val d = Value.asDict(run(e, "V" -> denseVec(1, -2, 3)))
    assert(num(d.get(0)) == 5.0)
    assert(d.get(1) == VZero)
    assert(num(d.get(2)) == 15.0)
  }

  test("subarray view iterates a segment") {
    val e = sum(gen("p")("x", sub(v("V"), 1, 3)))(v("x"))
    assert(num(run(e, "V" -> denseVec(10, 20, 30, 40))) == 50.0)
  }

  test("subarray lookup respects bounds") {
    assert(num(run(get(sub(v("V"), 1, 3), 2), "V" -> denseVec(10, 20, 30, 40))) == 30.0)
    assert(run(get(sub(v("V"), 1, 3), 3), "V" -> denseVec(10, 20, 30, 40)) == VZero)
  }

  test("scalar * dictionary scales") {
    val e = mul(2, v("V"))
    val d = Value.asDict(run(e, "V" -> hashVec(1L -> 3.0)))
    assert(num(d.get(1)) == 6.0)
  }

  test("dictionary + dictionary merges pointwise") {
    val e = add(v("U"), v("W"))
    val d = Value.asDict(run(e, "U" -> hashVec(1L -> 3.0), "W" -> hashVec(1L -> 4.0, 2L -> 5.0)))
    assert(num(d.get(1)) == 7.0)
    assert(num(d.get(2)) == 5.0)
  }

  test("dictionary * dictionary is the module product {k -> v*e}") {
    val e = mul(v("U"), v("W"))
    val d = Value.asDict(run(e, "U" -> hashVec(1L -> 3.0, 2L -> 1.0), "W" -> hashVec(1L -> 4.0)))
    // U * W = {1 -> 3*W, 2 -> 1*W}; (U*W)(1)(1) = 12
    assert(num(Value.asDict(d.get(1)).get(1)) == 12.0)
    assert(num(Value.asDict(d.get(2)).get(1)) == 4.0)
  }

  test("rule A2 semantics: {k -> a*b} == {k -> a} * b for b a dictionary") {
    val lhs = compile(dict(n(3))(mul(v("c"), v("W"))))
    val rhs = compile(mul(dict(n(3))(v("c")), v("W")))
    val st = Map[String, Value]("c" -> VNum(2), "W" -> hashVec(0L -> 5.0))
    assert(Value.deepEq(Interp.run(lhs, st), Interp.run(rhs, st)))
  }

  test("merge two-pointer intersection on values") {
    // idx arrays [1,3,5] and [2,3,5,9]: common values 3 and 5
    val core = Merge(Sym("L"), Sym("R"), Vr(0))
    val r = Interp.run(core, Map(
      "L" -> new VDenseL(Array(1L, 3L, 5L)),
      "R" -> new VDenseL(Array(2L, 3L, 5L, 9L))))
    assert(num(r) == 8.0)
  }

  test("merge binds positions k1, k2") {
    // sum of position products for matches: (1,1)->3 and (2,2)->5
    val core = Merge(Sym("L"), Sym("R"),
      Bin(BinOp.Add, Bin(BinOp.Mul, Vr(2), Num(10)), Vr(1)))
    val r = Interp.run(core, Map(
      "L" -> new VDenseL(Array(1L, 3L, 5L)),
      "R" -> new VDenseL(Array(2L, 3L, 5L, 9L))))
    // matches at (k1=1,k2=1) and (k1=2,k2=2): (10+1) + (20+2) = 33
    assert(num(r) == 33.0)
  }

  test("nested dictionary construction and lookup") {
    val e = sum(gen("i")("x", "V"))(dict(v("i"), n(0))(v("x")))
    val d = Value.asDict(run(e, "V" -> denseVec(7, 8)))
    assert(num(Value.asDict(d.get(1)).get(0)) == 8.0)
  }

  test("matrix multiplication example 3.1") {
    // A = [[1,2],[3,4]], B = [[5,6],[7,8]] as tries
    def mat(rows: (Long, Seq[(Long, Double)])*): Value =
      new VHashV(LongMap.from(rows.map { case (i, r) =>
        i -> (new VHashN(LongMap.from(r)): Value) }))
    val a = mat(0L -> Seq(0L -> 1.0, 1L -> 2.0), 1L -> Seq(0L -> 3.0, 1L -> 4.0))
    val b = mat(0L -> Seq(0L -> 5.0, 1L -> 6.0), 1L -> Seq(0L -> 7.0, 1L -> 8.0))
    val q = repro.kernels.Kernels.mmm
    val r = Value.asDict(Interp.run(q, Map("A" -> a, "B" -> b)))
    assert(num(Value.asDict(r.get(0)).get(0)) == 19.0)
    assert(num(Value.asDict(r.get(0)).get(1)) == 22.0)
    assert(num(Value.asDict(r.get(1)).get(0)) == 43.0)
    assert(num(Value.asDict(r.get(1)).get(1)) == 50.0)
  }

  test("deepEq distinguishes") {
    assert(Value.deepEq(denseVec(1, 0, 2), hashVec(0L -> 1.0, 2L -> 2.0)))
    assert(!Value.deepEq(denseVec(1, 0, 2), hashVec(0L -> 1.0)))
  }

  test("toCoo flattens nested dicts") {
    val e = sum(gen("i")("x", "V"))(dict(v("i"), n(1))(v("x")))
    val coo = Value.toCoo(run(e, "V" -> denseVec(7, 8)))
    assert(coo == Seq((Vector(0L, 1L), 7.0), (Vector(1L, 1L), 8.0)))
  }

  test("zero handling: VZero is additive identity") {
    assert(Value.add(VZero, VNum(3)) == VNum(3))
    assert(Value.mul(VZero, VNum(3)) == VZero)
    assert(run(add(0, 5)) == VNum(5.0))
  }
}
