package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.egraph._
import repro.exec._
import scala.collection.mutable.LongMap

/** Semantic soundness of every rewrite rule: seed an e-graph with a
  * closed witness expression that the rule's LHS matches, saturate with
  * just that rule (plus nothing else), and check that *every* variant of
  * the root e-class evaluates to the same value over a concrete symbol
  * table. A wrong De Bruijn shift or an unsound condition shows up as a
  * differing variant. */
class RulesSpec extends AnyFunSuite {

  private val symtab: Map[String, Value] = Map(
    "c" -> VNum(7),
    "d" -> VNum(-3),
    "V" -> new VDenseN(Array(3, 0, 5, 2)),
    "W" -> new VDenseN(Array(2, 1, 4)),
    "H" -> new VHashN(LongMap(1L -> 4.0, 3L -> -2.0)),
    "H2" -> new VHashN(LongMap(0L -> 1.5, 3L -> 2.0)),
    "I1" -> new VDenseL(Array(1L, 3L, 5L)),
    "I2" -> new VDenseL(Array(2L, 3L, 5L, 9L)),
    "M" -> new VHashV(LongMap(
      0L -> new VHashN(LongMap(0L -> 1.0, 2L -> 2.0)),
      2L -> new VHashN(LongMap(1L -> 3.0)))),
  )

  private def rule(name: String): Rule =
    Rules.physicalStage.find(_.name == name).getOrElse(fail(s"no rule named $name"))

  /** Evaluate every variant of the root class after saturating with one
    * rule; all must agree, and (if `expectFire`) there must be >1. */
  private def checkRule(name: String, witness: Expr,
                        expectFire: Boolean = true,
                        extraRules: Seq[String] = Nil): Unit = {
    val eg = new EGraph
    val root = eg.addExpr(witness)
    val rs = (name +: extraRules).map(rule)
    Saturate.run(eg, rs, SatConfig(maxIters = 4, maxNodes = 4000),
      symIsScalar = Set("c", "d", "beta"))
    val expected = Interp.run(witness, symtab)
    val variants = variantsOf(eg, root)
    if (expectFire)
      assert(variants.size > 1, s"$name did not fire on $witness")
    variants.foreach { v =>
      val got = Interp.run(v, symtab)
      assert(Value.deepEq(got, expected),
        s"$name produced a non-equivalent variant:\n  ${Expr.pretty(v)}\n" +
        s"  expected ${Value.toCoo(expected)}\n  got ${Value.toCoo(got)}")
    }
  }

  /** One expression per e-node of the root class (children realized via
    * their smallest representatives). */
  private def variantsOf(eg: EGraph, root: Int): Seq[Expr] = {
    val repr = Extract.representatives(eg, eg.classIds)
    eg.nodes(root).toSeq.map(eg.canonicalize).distinct.flatMap { n =>
      val cs = n.children.map(repr)
      if (cs.forall(_.isDefined)) Some(n.op.compose(cs.map(_.get).toVector)) else None
    }
  }

  /** The literal `Fold` rewrites `witness` to in one iteration, if any. */
  private def foldOnce(witness: Expr): Option[Double] = {
    val eg = new EGraph
    val root = eg.addExpr(witness)
    Saturate.run(eg, Seq(rule("Fold")), SatConfig(maxIters = 1))
    eg.nodes(root).iterator.map(_.op).collectFirst { case Op.Num(d) => d }
  }

  private def s(n: String) = Sym(n)
  private def mul(a: Expr, b: Expr) = Bin(BinOp.Mul, a, b)
  private def addE(a: Expr, b: Expr) = Bin(BinOp.Add, a, b)

  // ---- associativity / commutativity --------------------------------------
  test("A1l sound")(checkRule("A1l", mul(mul(s("c"), s("d")), Num(3))))
  test("A1r sound")(checkRule("A1r", mul(s("c"), mul(s("d"), Num(3)))))
  test("there is deliberately no * commutativity rule") {
    assert(!Rules.physicalStage.exists(_.name == "CmMul"))
  }
  test("C1 sound")(checkRule("C1", addE(s("c"), s("d"))))
  test("AAdd sound")(checkRule("AAdd", addE(addE(s("c"), s("d")), Num(3))))
  test("C2 sound")(checkRule("C2", Bin(BinOp.Eq, s("c"), s("d"))))
  test("CAnd sound")(checkRule("CAnd", Bin(BinOp.And, Bin(BinOp.Gt, s("c"), Num(0)), Bin(BinOp.Gt, s("d"), Num(0)))))
  test("A2l sound")(checkRule("A2l", Dict(Num(3), mul(s("c"), s("d")))))
  test("A2r sound")(checkRule("A2r", mul(Dict(Num(3), s("c")), s("d"))))
  test("A3l sound")(checkRule("A3l", Dict(Num(3), mul(s("c"), s("d")))))
  test("A3r sound")(checkRule("A3r", mul(s("c"), Dict(Num(3), s("d")))))
  test("A4l sound")(checkRule("A4l", IfThen(Bin(BinOp.Gt, s("c"), Num(0)), mul(s("c"), s("d")))))
  test("A4r sound")(checkRule("A4r", mul(s("c"), IfThen(Bin(BinOp.Gt, s("d"), Num(-5)), s("d")))))

  // ---- algebraic simplifications ------------------------------------------
  test("L1a sound")(checkRule("L1a", addE(s("c"), Num(0))))
  test("L1b sound")(checkRule("L1b", addE(Num(0), s("c"))))
  test("L2a sound")(checkRule("L2a", mul(s("c"), Num(0))))
  test("L2b sound")(checkRule("L2b", mul(Num(0), s("c"))))
  test("L3a sound")(checkRule("L3a", mul(s("c"), Num(1))))
  test("L3b sound")(checkRule("L3b", mul(Num(1), s("c"))))
  test("L5 sound")(checkRule("L5", Bin(BinOp.Sub, s("c"), Num(0))))
  test("L6 sound")(checkRule("L6", Bin(BinOp.Sub, s("c"), s("c"))))
  test("EqRefl sound")(checkRule("EqRefl", Bin(BinOp.Eq, s("c"), s("c"))))
  test("IfT sound")(checkRule("IfT", IfThen(Num(2), s("c"))))
  test("IfF sound")(checkRule("IfF", IfThen(Num(0), s("c"))))
  test("Fold sound on +")(checkRule("Fold", addE(Num(2), Num(3))))
  test("Fold sound on idiv")(checkRule("Fold", Bin(BinOp.IDiv, Num(7), Num(2))))
  test("Fold sound on <")(checkRule("Fold", Bin(BinOp.Lt, Num(2), Num(3))))
  test("Fold skips division by zero")(checkRule("Fold", Bin(BinOp.Div, Num(2), Num(0)), expectFire = false))
  test("Fold agrees with Interp on every operator") {
    import BinOp._
    val ops = Seq(Add, Sub, Mul, Div, Mod, IDiv, Eq, Lt, Le, Gt, Ge, And, Or, EvenBits, OddBits)
    val pairs = Seq((7.0, 3.0), (-7.0, 2.0), (2.5, 0.0), (0.0, 0.0), (1.0, 1.0))
    val folded = for {
      op <- ops; (x, y) <- pairs
      d <- foldOnce(Bin(op, Num(x), Num(y)))
    } yield {
      assert(d == Value.asNum(Interp.run(Bin(op, Num(x), Num(y)), Map.empty)), s"$x $op $y")
      (op, x, y)
    }
    assert(folded.collect { case (op, 7.0, 3.0) => op } == ops, "every operator folds 7 op 3")
    assert(!folded.exists { case (op, _, y) => op == Div && y == 0 }, "no division by zero")
  }
  test("IfIf1 sound")(checkRule("IfIf1",
    IfThen(Bin(BinOp.Gt, s("c"), Num(0)), IfThen(Bin(BinOp.Gt, s("d"), Num(-5)), s("c")))))
  test("IfIf2 sound")(checkRule("IfIf2",
    IfThen(Bin(BinOp.And, Bin(BinOp.Gt, s("c"), Num(0)), Bin(BinOp.Gt, s("d"), Num(-5))), s("c"))))

  // ---- distributivity / factorization -------------------------------------
  test("D1l sound")(checkRule("D1l", addE(mul(s("c"), s("d")), mul(s("c"), Num(3)))))
  test("D1r sound")(checkRule("D1r", mul(s("c"), addE(s("d"), Num(3)))))
  test("D2l sound")(checkRule("D2l", Sum(s("V"), mul(s("c"), Vr(0)))))
  test("D2r sound")(checkRule("D2r", mul(s("c"), Sum(s("V"), Vr(0)))))
  test("D3l sound")(checkRule("D3l", Sum(s("V"), mul(Vr(0), s("c")))))
  test("D3r sound")(checkRule("D3r", mul(Sum(s("V"), Vr(0)), s("c"))))
  test("D2l does not fire when factor uses loop vars") {
    checkRule("D2l", Sum(s("V"), mul(Vr(1), Vr(0))), expectFire = false)
  }
  test("D4l sound")(checkRule("D4l", Sum(s("H"), Dict(Num(2), Vr(0)))))
  test("D4r sound")(checkRule("D4r", Dict(Num(2), Sum(s("H"), Vr(0)))))
  test("D4l does not fire on loop-dependent key") {
    checkRule("D4l", Sum(s("H"), Dict(Vr(1), Vr(0))), expectFire = false)
  }

  // ---- fusion --------------------------------------------------------------
  test("F1 sound (key present)") {
    checkRule("F1", Sum(s("H"), IfThen(Bin(BinOp.Eq, Vr(1), Num(3)), mul(Vr(0), s("c")))))
  }
  test("F1 sound (key absent — strictness saves it)") {
    checkRule("F1", Sum(s("H"), IfThen(Bin(BinOp.Eq, Vr(1), Num(2)), mul(Vr(0), s("c")))))
  }
  test("F1 does not fire on non-strict body") {
    checkRule("F1", Sum(s("H"), IfThen(Bin(BinOp.Eq, Vr(1), Num(2)), Num(5))),
      expectFire = false)
  }
  test("F1r sound (in range)") {
    checkRule("F1r", Sum(Rng(Num(1), Num(4)),
      IfThen(Bin(BinOp.Eq, Vr(1), Num(2)), addE(Vr(0), s("c")))))
  }
  test("F1r sound (out of range — guard saves non-strict bodies)") {
    checkRule("F1r", Sum(Rng(Num(1), Num(4)),
      IfThen(Bin(BinOp.Eq, Vr(1), Num(9)), addE(Vr(0), s("c")))))
  }
  test("F1s sound (in range)") {
    checkRule("F1s", Sum(SubArr(s("V"), Num(1), Num(3)),
      IfThen(Bin(BinOp.Eq, Vr(1), Num(2)), addE(Vr(0), s("c")))))
  }
  test("F1s sound (out of range)") {
    checkRule("F1s", Sum(SubArr(s("V"), Num(1), Num(3)),
      IfThen(Bin(BinOp.Eq, Vr(1), Num(7)), addE(Vr(0), s("c")))))
  }
  test("T8 sound (lookup through conditional, both branches)") {
    checkRule("T8", Get(IfThen(Bin(BinOp.Gt, s("c"), Num(0)), s("H")), Num(3)))
    checkRule("T8", Get(IfThen(Bin(BinOp.Lt, s("c"), Num(0)), s("H")), Num(3)))
  }
  test("T9 sound (sum over conditional collection)") {
    checkRule("T9", Sum(IfThen(Bin(BinOp.Gt, s("c"), Num(0)), s("V")), mul(Vr(0), Num(2))))
    checkRule("T9", Sum(IfThen(Bin(BinOp.Lt, s("c"), Num(0)), s("V")), mul(Vr(0), Num(2))))
  }
  test("T7 sound (lookup distributes over sum)") {
    // (sum(<k,v> in V) {k+1 -> v*2})(3)
    checkRule("T7", Get(Sum(s("V"),
      Dict(addE(Vr(1), Num(1)), mul(Vr(0), Num(2)))), Num(3)))
  }
  test("T7 sound on missing key") {
    checkRule("T7", Get(Sum(s("V"),
      Dict(addE(Vr(1), Num(1)), mul(Vr(0), Num(2)))), Num(99)))
  }
  test("MulLoopL sound (scalar times dict becomes a loop)") {
    // the dict operand must be provably dict-typed (value is a literal)
    checkRule("MulLoopL", mul(s("c"), Sum(s("V"), Dict(Vr(1), Num(2)))))
  }
  test("MulLoopR sound (dict times scalar becomes a loop)") {
    checkRule("MulLoopR", mul(Sum(s("V"), Dict(Vr(1), Num(2))), s("c")))
  }
  test("F2 sound") {
    // sum(<k1,v1> in sum(<k,v> in V) {k -> v*2}) v1*k1
    checkRule("F2", Sum(Sum(s("V"), Dict(Vr(1), mul(Vr(0), Num(2)))),
      mul(Vr(0), Vr(1))))
  }
  test("F3 sound") {
    // inner keys k+10 are @unique
    checkRule("F3", Sum(Sum(s("V"), Dict(addE(Vr(1), Num(10)), mul(Vr(0), Num(2)),
      unique = true)), mul(Vr(0), s("c"))))
  }
  test("U1 sound on colliding keys with linear body") {
    // keys k % 2 collide; body linear in v1
    checkRule("U1", Sum(Sum(s("V"), Dict(Bin(BinOp.Mod, Vr(1), Num(2)), Vr(0))),
      mul(Vr(0), s("c"))))
  }
  test("U1 does not fire on nonlinear body") {
    checkRule("U1", Sum(Sum(s("V"), Dict(Bin(BinOp.Mod, Vr(1), Num(2)), Vr(0))),
      mul(Vr(0), Vr(0))), expectFire = false)
  }
  test("F4 sound (sorted merge)") {
    val w = Sum(SubArr(s("I1"), Num(0), Num(3)),
      Sum(SubArr(s("I2"), Num(0), Num(4)),
        IfThen(Bin(BinOp.Eq, Vr(2), Vr(0)), mul(Vr(2), Num(2)))))
    checkRule("F4", w)
  }
  test("F4 body may use all bound variables") {
    val w = Sum(SubArr(s("I1"), Num(0), Num(3)),
      Sum(SubArr(s("I2"), Num(0), Num(4)),
        IfThen(Bin(BinOp.Eq, Vr(2), Vr(0)),
          addE(mul(Vr(3), Num(100)), addE(mul(Vr(1), Num(10)), Vr(0))))))
    checkRule("F4", w)
  }
  test("LetInline sound")(checkRule("LetInline", Let(s("c"), mul(Vr(0), Vr(0)))))
  test("LICM sound") {
    // sum(<i,row> in M) { i -> i * (sum(<k,x> in V) x) }
    checkRule("LICM", Sum(s("M"), Dict(Vr(1), mul(Vr(1), Sum(s("V"), Vr(0))))))
  }
  test("X1 interchange sound") {
    checkRule("X1", Sum(s("H"), Sum(s("V"), mul(Vr(0), Vr(2)))))
  }
  test("X1 body may use keys of both loops") {
    checkRule("X1", Sum(s("H"), Sum(s("V"),
      mul(mul(Vr(0), Vr(2)), addE(Vr(1), Vr(3))))))
  }
  test("X1 does not fire when inner collection depends on outer") {
    checkRule("X1", Sum(s("M"), Sum(Vr(0), mul(Vr(0), Num(2)))), expectFire = false)
  }

  // ---- dictionary rules ----------------------------------------------------
  test("T1 sound")(checkRule("T1", Sum(s("H"), Dict(Vr(1), Vr(0)))))
  test("T2 sound")(checkRule("T2", addE(Get(s("H"), Num(3)), Get(s("H2"), Num(3)))))
  test("T3 sound")(checkRule("T3", addE(Dict(Num(1), s("c")), Dict(Num(1), s("d")))))
  test("T4 sound in range")(checkRule("T4", Get(Rng(Num(2), Num(5)), Num(3))))
  test("T4 sound out of range")(checkRule("T4", Get(Rng(Num(2), Num(5)), Num(7))))
  test("T5 sound in range")(checkRule("T5", Get(SubArr(s("V"), Num(1), Num(3)), Num(2))))
  test("T5 sound out of range")(checkRule("T5", Get(SubArr(s("V"), Num(1), Num(3)), Num(3))))
  test("T6 sound on hit")(checkRule("T6", Get(Dict(Num(2), s("c")), Num(2))))
  test("T6 sound on miss")(checkRule("T6", Get(Dict(Num(2), s("c")), Num(1))))

  // ---- physical rules ------------------------------------------------------
  test("PhysDense sound")(checkRule("PhysDense", Dict(Num(2), s("c"))))
  test("PhysHash sound")(checkRule("PhysHash", Dict(Num(2), s("c"))))
  test("@dense dict accumulates into a dense array at runtime") {
    val e = Sum(s("H"), Dict(Vr(1), Vr(0), unique = false, Phys.PDense))
    val r = Interp.run(e, symtab)
    assert(r.isInstanceOf[VDenseN])
    assert(Value.deepEq(r, symtab("H")))
  }
  test("@hash dict accumulates into a hash map at runtime") {
    val e = Sum(s("V"), Dict(Vr(1), Vr(0), unique = false, Phys.PHash))
    val r = Interp.run(e, symtab)
    assert(r.isInstanceOf[VHashN])
    assert(Value.deepEq(r, symtab("V")))
  }
  test("S1 sound") {
    checkRule("S1", Sum(SubArr(s("V"), Num(1), Num(3)), mul(Vr(0), Vr(1))))
  }

  // ---- global sanity -------------------------------------------------------
  test("rule count is in the paper's ballpark (~44)") {
    val count = Rules.physicalStage.size
    assert(count >= 40 && count <= 60, s"got $count")
  }

  // Rule order sets the e-graph's union order, so the stages must keep it.
  test("each rule set lists its rules in a fixed order") {
    val ac = "A1l A1r C1 AAdd C2 CAnd A2l A2r A3l A3r MulLoopL MulLoopR A4l A4r"
    val simplif = "L1a L1b L2a L2b L3a L3b L5 L6 EqRefl IfT IfF Fold IfIf1 IfIf2"
    val fusion = "F1 F1r F1s F2 F3 U1 F4 LetInline"
    val dictionary = "T1 T2 T3 T4 T5 T6 T8 T9 T7"
    val physical = "PhysDense PhysHash S1"
    val logical = s"$ac $simplif D1l D1r D2l D2r D3l D3r D4l D4r $fusion LICM X1 $dictionary"
    assert(Rules.logical.map(_.name).mkString(" ") == logical)
    assert(Rules.physicalStage.map(_.name).mkString(" ") == s"$logical $physical")
    assert(Rules.tacoLike.map(_.name).mkString(" ") ==
      s"$ac $simplif D4l D4r $fusion $dictionary $physical")
  }

  test("rule names are unique") {
    val names = Rules.physicalStage.map(_.name)
    assert(names.distinct.size == names.size)
  }
}
