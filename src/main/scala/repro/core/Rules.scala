package repro.core

import repro.egraph._
import scala.util.Try

/** The rewrite-rule base (Fig. 3 and Sec. 5.6): 58 rules. The 41 named
  * A*, C*, L*, D*, F*, T* carry Fig. 3's names (suffixes mark directions
  * and variants); the paper does not list the other 17: `+` associativity,
  * `&&` commutativity, dictionary-product loops, `==` reflexivity,
  * constant and if folding, if-merging, unnesting, let inlining, LICM,
  * loop interchange, sub-array iteration and physical dense/hash lowering.
  *
  * De Bruijn discipline (binder arities: let=1, sum=2, merge=3): a rule
  * whose RHS moves a matched subterm across binders uses [[RRemap]],
  * which extracts the class's smallest representative and shifts its
  * free indices; side conditions `k,v ∉ FV(e)` become free-variable
  * checks on that representative.
  */
object Rules {
  import Rule.{simple, fvAvoid, allOf, onRepr}
  import BinOp._

  // ---- pattern/template shorthand -----------------------------------------
  private def pv(n: String) = PVar(n)
  private def p(op: Op, cs: Pat*) = PNode(op, cs.toVector)
  private def pb(op: BinOp, a: Pat, b: Pat) = p(Op.Bin(op), a, b)
  private def r(op: Op, cs: RT*) = RNode(op, cs: _*)
  private def rb(op: BinOp, a: RT, b: RT) = r(Op.Bin(op), a, b)
  private def variable(i: Int) = p(Op.Var(i))
  private def num(v: Double) = p(Op.Num(v))

  private val isDict: Op => Boolean = _.isInstanceOf[Op.Dict]
  private val isUniqueDict: Op => Boolean = { case Op.Dict(u, _) => u; case _ => false }
  private val isLogicalDict: Op => Boolean = {
    case Op.Dict(_, phys) => phys == Phys.PLog; case _ => false
  }
  private val isNum: Op => Boolean = _.isInstanceOf[Op.Num]

  /** Any-flag dictionary pattern, op captured as `dv`. */
  private def pdict(dv: String, k: Pat, v: Pat) = POpVar(dv, isDict, Vector(k, v))

  /** The dictionary op captured as `dv` (by [[pdict]] or another
    * dictionary predicate) with `f` applied to it. */
  private def withDict(dv: String)(f: Op.Dict => Op.Dict): (RuleCtx, Subst) => Op =
    (_, s) => f(s.op(dv).asInstanceOf[Op.Dict])
  /** Keep the captured dict's phys flag but drop @unique (the RHS key is
    * no longer one-per-iteration). */
  private def dropUnique(dv: String) = withDict(dv)(_.copy(unique = false))
  private def keepOp(dv: String): (RuleCtx, Subst) => Op = (_, s) => s.op(dv)

  private def shiftF(delta: Int, cutoff: Int = 0): Int => Int =
    i => if (i >= cutoff) i + delta else i

  // conditions, memoized per class for the iteration (see RuleCtx.holds)
  private def strictIn(n: String, ix: Int): (RuleCtx, Subst) => Boolean =
    onRepr(n, ("strictIn", ix))((_, e) => Expr.isStrictIn(e, ix))
  private def linearIn(n: String, ix: Int): (RuleCtx, Subst) => Boolean =
    onRepr(n, ("linearIn", ix))((_, e) => Expr.isLinearIn(e, ix))
  private def reprIsSum(n: String): (RuleCtx, Subst) => Boolean =
    (ctx, s) => ctx.repr(s(n)).isInstanceOf[Sum]
  private def scalarTyped(n: String): (RuleCtx, Subst) => Boolean =
    onRepr(n, "scalarTyped")((ctx, e) => Expr.dictDepth(e, ctx.symIsScalar).contains(0))
  private def dictTyped(n: String): (RuleCtx, Subst) => Boolean =
    onRepr(n, "dictTyped")((ctx, e) => Expr.dictDepth(e, ctx.symIsScalar).exists(_ >= 1))
  private def reprSorted(n: String): (RuleCtx, Subst) => Boolean =
    onRepr(n, "reprSorted")((_, e) => e match {
      case SubArr(_, _, _) | Rng(_, _) => true
      case _ => false
    })

  // ---- associativity / commutativity (A1-A4, C1-C2) ------------------------
  private val assocComm = Seq(
    simple("A1l", pb(Mul, pb(Mul, pv("a"), pv("b")), pv("c")),
      rb(Mul, RVar("a"), rb(Mul, RVar("b"), RVar("c")))),
    simple("A1r", pb(Mul, pv("a"), pb(Mul, pv("b"), pv("c"))),
      rb(Mul, rb(Mul, RVar("a"), RVar("b")), RVar("c"))),
    // NOTE: no commutativity for * — `{i->a} * {j->b} = {i->{j->a*b}}`
    // is the (non-commutative) module product; the paper's Fig. 3 lists
    // commutativity only for + and == for the same reason.
    simple("C1", pb(Add, pv("a"), pv("b")), rb(Add, RVar("b"), RVar("a"))),
    simple("AAdd", pb(Add, pb(Add, pv("a"), pv("b")), pv("c")),
      rb(Add, RVar("a"), rb(Add, RVar("b"), RVar("c")))),
    simple("C2", pb(Eq, pv("a"), pv("b")), rb(Eq, RVar("b"), RVar("a"))),
    simple("CAnd", pb(And, pv("a"), pv("b")), rb(And, RVar("b"), RVar("a"))),
    // A2: {k -> a*b} <-> {k -> a} * b
    simple("A2l", pdict("d", pv("k"), pb(Mul, pv("a"), pv("b"))),
      rb(Mul, RNodeF(keepOp("d"), RVar("k"), RVar("a")), RVar("b"))),
    simple("A2r", pb(Mul, pdict("d", pv("k"), pv("a")), pv("b")),
      RNodeF(keepOp("d"), RVar("k"), rb(Mul, RVar("a"), RVar("b")))),
    // A3: {k -> a*b} <-> a * {k -> b} — ONLY for scalar a: the module
    // product does not commute past a dictionary factor (a dict-valued
    // `a` would swap key nesting levels)
    simple("A3l", pdict("d", pv("k"), pb(Mul, pv("a"), pv("b"))),
      rb(Mul, RVar("a"), RNodeF(keepOp("d"), RVar("k"), RVar("b"))),
      cond = scalarTyped("a")),
    simple("A3r", pb(Mul, pv("a"), pdict("d", pv("k"), pv("b"))),
      RNodeF(keepOp("d"), RVar("k"), rb(Mul, RVar("a"), RVar("b"))),
      cond = scalarTyped("a")),
    // Sec 5.6: force dictionary products into explicit loops —
    // a * d -> sum(<k,v> in d) {@unique k -> a' * v}  (a scalar, d dict)
    simple("MulLoopL", pb(Mul, pv("a"), pv("b")),
      r(Op.Sum, RVar("b"),
        RNode(Op.Dict(unique = true, Phys.PLog), RLit(Vr(1)),
          rb(Mul, RRemap("a", shiftF(+2)), RLit(Vr(0))))),
      cond = allOf(scalarTyped("a"), dictTyped("b"))),
    // d * x -> sum(<k,v> in d) {@unique k -> v * x'}   (d dict, x anything)
    simple("MulLoopR", pb(Mul, pv("a"), pv("b")),
      r(Op.Sum, RVar("a"),
        RNode(Op.Dict(unique = true, Phys.PLog), RLit(Vr(1)),
          rb(Mul, RLit(Vr(0)), RRemap("b", shiftF(+2))))),
      cond = dictTyped("a")),
    // A4: if (c) then a*b <-> a * (if (c) then b)
    simple("A4l", p(Op.If, pv("c"), pb(Mul, pv("a"), pv("b"))),
      rb(Mul, RVar("a"), r(Op.If, RVar("c"), RVar("b")))),
    simple("A4r", pb(Mul, pv("a"), p(Op.If, pv("c"), pv("b"))),
      r(Op.If, RVar("c"), rb(Mul, RVar("a"), RVar("b")))),
  )

  // ---- algebraic simplifications (L1-L6 and friends) -----------------------
  private val zero = RLit(Num(0))
  private val simplif = Seq(
    simple("L1a", pb(Add, pv("a"), num(0.0)), RVar("a")),
    simple("L1b", pb(Add, num(0.0), pv("a")), RVar("a")),
    simple("L2a", pb(Mul, pv("a"), num(0.0)), zero),
    simple("L2b", pb(Mul, num(0.0), pv("a")), zero),
    simple("L3a", pb(Mul, pv("a"), num(1.0)), RVar("a")),
    simple("L3b", pb(Mul, num(1.0), pv("a")), RVar("a")),
    simple("L5", pb(Sub, pv("a"), num(0.0)), RVar("a")),
    simple("L6", pb(Sub, pv("a"), pv("a")), zero),
    simple("EqRefl", pb(Eq, pv("a"), pv("a")), RLit(Num(1))),
    // if (true) then e -> e ; if (false) then e -> 0
    simple("IfT", p(Op.If, POpVar("c", { case Op.Num(v) => v != 0.0; case _ => false },
        Vector.empty), pv("e")), RVar("e")),
    simple("IfF", p(Op.If, num(0.0), pv("e")), zero),
    // constant folding on scalar binops, except where evaluation would
    // throw (an integer op on a fraction or by zero) or `/` divide by zero
    Rule("Fold",
      POpVar("op", _.isInstanceOf[Op.Bin], Vector(
        POpVar("x", isNum, Vector.empty), POpVar("y", isNum, Vector.empty))),
      (ctx, s) => (s.op("op"), s.op("x"), s.op("y")) match {
        case (Op.Bin(op), Op.Num(x), Op.Num(y)) if !(op == Div && y == 0) =>
          Try(op(x, y)).toOption.map(d => ctx.eg.addExpr(Num(d)))
        case _ => None
      }),
    // if (c1) then if (c2) then e <-> if (c1 && c2) then e
    simple("IfIf1", p(Op.If, pv("c1"), p(Op.If, pv("c2"), pv("e"))),
      r(Op.If, rb(And, RVar("c1"), RVar("c2")), RVar("e"))),
    simple("IfIf2", p(Op.If, pb(And, pv("c1"), pv("c2")), pv("e")),
      r(Op.If, RVar("c1"), r(Op.If, RVar("c2"), RVar("e")))),
  )

  // ---- distributivity / factorization (D1-D3) ------------------------------
  private val factor = Seq(
    simple("D1l", pb(Add, pb(Mul, pv("a"), pv("b")), pb(Mul, pv("a"), pv("c"))),
      rb(Mul, RVar("a"), rb(Add, RVar("b"), RVar("c")))),
    simple("D1r", pb(Mul, pv("a"), pb(Add, pv("b"), pv("c"))),
      rb(Add, rb(Mul, RVar("a"), RVar("b")), rb(Mul, RVar("a"), RVar("c")))),
    // D2: sum(<k,v> in e1) a*b -> a' * sum(<k,v> in e1) b    (a invariant)
    simple("D2l", p(Op.Sum, pv("e1"), pb(Mul, pv("a"), pv("b"))),
      rb(Mul, RRemap("a", shiftF(-2)), r(Op.Sum, RVar("e1"), RVar("b"))),
      cond = fvAvoid("a", Set(0, 1))),
    simple("D2r", pb(Mul, pv("a"), p(Op.Sum, pv("e1"), pv("b"))),
      r(Op.Sum, RVar("e1"), rb(Mul, RRemap("a", shiftF(+2)), RVar("b")))),
    // D3: sum(<k,v> in e1) a*b -> (sum(<k,v> in e1) a) * b'   (b invariant)
    simple("D3l", p(Op.Sum, pv("e1"), pb(Mul, pv("a"), pv("b"))),
      rb(Mul, r(Op.Sum, RVar("e1"), RVar("a")), RRemap("b", shiftF(-2))),
      cond = fvAvoid("b", Set(0, 1))),
    simple("D3r", pb(Mul, p(Op.Sum, pv("e1"), pv("a")), pv("b")),
      r(Op.Sum, RVar("e1"), rb(Mul, RVar("a"), RRemap("b", shiftF(+2))))),
  )

  // ---- sums into dictionary values (D4) ------------------------------------
  private val sumIntoDict = Seq(
    // D4: sum(<k,v> in e1) {k2 -> v2} -> {k2' -> sum(<k,v> in e1) v2}  (k2 inv.)
    simple("D4l", p(Op.Sum, pv("e1"), pdict("d", pv("k2"), pv("v2"))),
      RNodeF(dropUnique("d"), RRemap("k2", shiftF(-2)),
        r(Op.Sum, RVar("e1"), RVar("v2"))),
      cond = fvAvoid("k2", Set(0, 1))),
    simple("D4r", pdict("d", pv("k2"), p(Op.Sum, pv("e1"), pv("v2"))),
      r(Op.Sum, RVar("e1"),
        RNodeF(dropUnique("d"), RRemap("k2", shiftF(+2)), RVar("v2")))),
  )

  // ---- fusion (F1-F4, unnesting, let inlining) -----------------------------
  // F1r and F1s: let k = e2' in if (lo' <= k && k < hi') then let v = value in e3
  private def inBounds(value: RT) =
    r(Op.Let, RRemap("e2", shiftF(-2)),
      r(Op.If, rb(And, rb(Le, RRemap("lo", shiftF(+1)), RLit(Vr(0))),
                       rb(Lt, RLit(Vr(0)), RRemap("hi", shiftF(+1)))),
        r(Op.Let, value, RVar("e3"))))
  // F2, F3 and U1: sum(<k2,v2> in e1) let k1 = key in let v1 = value' in e3'
  private def letBound(key: RT, value: String) =
    r(Op.Sum, RVar("e1"),
      r(Op.Let, key,
        r(Op.Let, RRemap(value, i => if (i == 0) 1 else if (i == 1) 2 else i + 1),
          RRemap("e3", i => if (i <= 1) i else i + 2))))
  private val fusion = Seq(
    // F1: sum(<k,v> in e1) if (k == e2) then e3
    //   -> let k = e2' in let v = e1'(k) in e3        (k,v ∉ FV(e2))
    simple("F1",
      p(Op.Sum, pv("e1"), p(Op.If, pb(Eq, variable(1), pv("e2")), pv("e3"))),
      r(Op.Let, RRemap("e2", shiftF(-2)),
        r(Op.Let, r(Op.Get, RRemap("e1", shiftF(+1)), RLit(Vr(0))),
          RVar("e3"))),
      cond = allOf(fvAvoid("e2", Set(0, 1)), strictIn("e3", 0))),
    // F1r: sum(<k,v> in lo:hi) if (k == e2) then e3
    //   -> let k = e2' in if (lo' <= k && k < hi') then let v = k in e3
    // (sound without strictness: range membership IS the bounds check)
    simple("F1r",
      p(Op.Sum, p(Op.Rng, pv("lo"), pv("hi")),
        p(Op.If, pb(Eq, variable(1), pv("e2")), pv("e3"))),
      inBounds(RLit(Vr(0))), cond = fvAvoid("e2", Set(0, 1))),
    // F1s: sum(<k,v> in e(lo:hi)) if (k == e2) then e3
    //   -> let k = e2' in if (lo' <= k && k < hi') then let v = e'(k) in e3
    simple("F1s",
      p(Op.Sum, p(Op.Sub, pv("e"), pv("lo"), pv("hi")),
        p(Op.If, pb(Eq, variable(1), pv("e2")), pv("e3"))),
      inBounds(r(Op.Get, RRemap("e", shiftF(+1)), RLit(Vr(0)))), cond = fvAvoid("e2", Set(0, 1))),
    // F2: sum(<k1,v1> in sum(<k2,v2> in e1) {k2 -> e2}) e3
    //   -> sum(<k2,v2> in e1) let k1 = k2 in let v1 = e2' in e3'
    simple("F2",
      p(Op.Sum, p(Op.Sum, pv("e1"), pdict("d", variable(1), pv("e2"))), pv("e3")),
      letBound(RLit(Vr(1)), "e2"), cond = strictIn("e3", 0)),
    // F3: sum(<k1,v1> in sum(<k2,v2> in e1) {@unique ek -> ev}) e3
    //   -> sum(<k2,v2> in e1) let k1 = ek in let v1 = ev' in e3'
    simple("F3",
      p(Op.Sum, p(Op.Sum, pv("e1"),
        POpVar("d", isUniqueDict, Vector(pv("ek"), pv("ev")))), pv("e3")),
      letBound(RVar("ek"), "ev"), cond = strictIn("e3", 0)),
    // U1: same as F3 without @unique, sound when e3 is linear in v1
    simple("U1",
      p(Op.Sum, p(Op.Sum, pv("e1"), pdict("d", pv("ek"), pv("ev"))), pv("e3")),
      letBound(RVar("ek"), "ev"), cond = allOf(linearIn("e3", 0), strictIn("e3", 0))),
    // F4: sum(<k1,v1> in e1) sum(<k2,v2> in e2') if (v1 == v2) then e3
    //   -> merge(<k1,k2,v> in <e1, e2>) e3'         (k1,v1 ∉ FV(e2'))
    simple("F4",
      p(Op.Sum, pv("e1"), p(Op.Sum, pv("e2"),
        p(Op.If, pb(Eq, variable(2), variable(0)), pv("e3")))),
      RNode(Op.Merge, RVar("e1"), RRemap("e2", shiftF(-2)),
        RRemap("e3", i => i match {
          case 0 => 0; case 1 => 1; case 2 => 0; case 3 => 2; case n => n - 1
        })),
      cond = allOf(fvAvoid("e2", Set(0, 1)), reprSorted("e1"), reprSorted("e2"))),
    // LetInline: let x = e1 in e2 -> e2[e1/x]   (small or single-use e1)
    Rule("LetInline", p(Op.Let, pv("e1"), pv("e2")),
      (ctx, s) => {
        // Inlining only ADDS an equivalent plan — extraction decides
        // whether recomputation beats materialization. Bound only to
        // keep term duplication from flooding the graph.
        val bound = ctx.repr(s("e1"))
        val body = ctx.repr(s("e2"))
        if (bound.size <= 48 || Expr.occurrences(body, 0) <= 1)
          Some(ctx.eg.addExpr(Expr.subst(body, 0, bound)))
        else None
      }),
  )

  // ---- loop-invariant code motion and loop interchange ---------------------
  private val loopMotion = Seq(
    // LICM: sum(<k,v> in e1) {k2 -> a * t} with t an invariant sum
    //   -> let t' in sum(<k,v> in e1') {k2' -> a' * %2}
    simple("LICM",
      p(Op.Sum, pv("e1"), pdict("d", pv("k2"), pb(Mul, pv("a"), pv("t")))),
      r(Op.Let, RRemap("t", shiftF(-2)),
        r(Op.Sum, RRemap("e1", shiftF(+1)),
          RNodeF(keepOp("d"),
            RRemap("k2", shiftF(+1, 2)),
            rb(Mul, RRemap("a", shiftF(+1, 2)), RLit(Vr(2)))))),
      cond = allOf(fvAvoid("t", Set(0, 1)), reprIsSum("t"))),
    // X1 (interchange): sum(<k1,v1> in e1) sum(<k2,v2> in e2') body
    //   -> sum(<k2,v2> in e2) sum(<k1,v1> in e1') body'   (e2' invariant)
    simple("X1",
      p(Op.Sum, pv("e1"), p(Op.Sum, pv("e2"), pv("body"))),
      r(Op.Sum, RRemap("e2", shiftF(-2)),
        r(Op.Sum, RRemap("e1", shiftF(+2)),
          RRemap("body", i => i match {
            case 0 => 2; case 1 => 3; case 2 => 0; case 3 => 1; case n => n
          }))),
      cond = fvAvoid("e2", Set(0, 1))),
  )

  // ---- dictionary rules (T1-T6) --------------------------------------------
  private val dictionary = Seq(
    simple("T1", p(Op.Sum, pv("e"), pdict("d", variable(1), variable(0))),
      RVar("e")),
    simple("T2", pb(Add, p(Op.Get, pv("a"), pv("i")), p(Op.Get, pv("b"), pv("i"))),
      r(Op.Get, rb(Add, RVar("a"), RVar("b")), RVar("i"))),
    simple("T3", pb(Add, pdict("d1", pv("k"), pv("a")), pdict("d2", pv("k"), pv("b"))),
      RNodeF(dropUnique("d1"), RVar("k"), rb(Add, RVar("a"), RVar("b")))),
    // T4: (a:b)(i) -> if (i >= a && i < b) then i
    simple("T4", p(Op.Get, p(Op.Rng, pv("a"), pv("b")), pv("i")),
      r(Op.If, rb(And, rb(Ge, RVar("i"), RVar("a")), rb(Lt, RVar("i"), RVar("b"))),
        RVar("i"))),
    // T5: e(a:b)(i) -> if (i >= a && i < b) then e(i)
    simple("T5", p(Op.Get, p(Op.Sub, pv("e"), pv("a"), pv("b")), pv("i")),
      r(Op.If, rb(And, rb(Ge, RVar("i"), RVar("a")), rb(Lt, RVar("i"), RVar("b"))),
        r(Op.Get, RVar("e"), RVar("i")))),
    // T6: {k -> v}(i) -> if (i == k) then v
    simple("T6", p(Op.Get, pdict("d", pv("k"), pv("v")), pv("i")),
      r(Op.If, rb(Eq, RVar("i"), RVar("k")), RVar("v"))),
    // T8: (if (c) then d)(i) -> if (c) then d(i) — lookups see through
    // conditionals (the zero dictionary looks up to 0)
    simple("T8", p(Op.Get, p(Op.If, pv("c"), pv("d")), pv("i")),
      r(Op.If, RVar("c"), r(Op.Get, RVar("d"), RVar("i")))),
    // T9: sum(<k,v> in if (c) then e) body -> if (c) then sum(<k,v> in e) body
    simple("T9", p(Op.Sum, p(Op.If, pv("c"), pv("e")), pv("body")),
      r(Op.If, RVar("c"), r(Op.Sum, RVar("e"), RVar("body")))),
    // T7 (lookup distributes over sum, cf. T2):
    // (sum(<k,v> in e1) {ek -> ev})(i) -> sum(<k,v> in e1) if (i' == ek) then ev
    simple("T7",
      p(Op.Get, p(Op.Sum, pv("e1"), pdict("d", pv("ek"), pv("ev"))), pv("i")),
      r(Op.Sum, RVar("e1"),
        r(Op.If, rb(Eq, RRemap("i", shiftF(+2)), RVar("ek")), RVar("ev")))),
  )

  // ---- physical rules (Sec. 5.6) -------------------------------------------
  private val physical = Seq(
    // logical dict -> @dense / @hash (cost decides which survives)
    simple("PhysDense", POpVar("d", isLogicalDict, Vector(pv("k"), pv("v"))),
      RNodeF(withDict("d")(_.copy(phys = Phys.PDense)), RVar("k"), RVar("v"))),
    simple("PhysHash", POpVar("d", isLogicalDict, Vector(pv("k"), pv("v"))),
      RNodeF(withDict("d")(_.copy(phys = Phys.PHash)), RVar("k"), RVar("v"))),
    // S1: sum over a sub-array -> sum over its position range
    simple("S1",
      p(Op.Sum, p(Op.Sub, pv("e"), pv("lo"), pv("hi")), pv("body")),
      r(Op.Sum, r(Op.Rng, RVar("lo"), RVar("hi")),
        r(Op.Let, r(Op.Get, RRemap("e", shiftF(+2)), RLit(Vr(1))),
          RRemap("body", i => i match { case 0 => 0; case 1 => 2; case n => n + 1 })))),
  )

  /** Stage-1 rules: storage-independent logical optimization. */
  val logical: Seq[Rule] =
    assocComm ++ simplif ++ factor ++ sumIntoDict ++ fusion ++ loopMotion ++ dictionary

  /** The Taco model (Sec. 6's baseline): storage-aware loop fusion and
    * output assembly, but NO cost-based factorization — excludes the
    * distributivity rules D1–D3, loop-invariant code motion, and loop
    * interchange (D4, plain dict output assembly, stays: it models how
    * Taco writes results through output indices). */
  val tacoLike: Seq[Rule] =
    assocComm ++ simplif ++ sumIntoDict ++ fusion ++ dictionary ++ physical

  /** Stage-2 adds the physical lowering rules. */
  val physicalStage: Seq[Rule] = logical ++ physical
}
