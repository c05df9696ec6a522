package repro.core

import repro.egraph._
import scala.collection.mutable

/** Cost-model parameters — the γ's of Fig. 6. Dense arrays iterate and
  * look up cheaper than hash maps; logical (un-annotated) dictionary
  * construction carries a prohibitive penalty, playing the role of the
  * paper's ∞ while keeping plans comparable before physical lowering. */
final case class CostParams(
    iterDense: Double = 1.0,
    iterHash: Double = 2.5,
    lookupDense: Double = 1.0,
    lookupHash: Double = 4.0,
    insertDense: Double = 1.0,
    insertHash: Double = 4.0,
    /** Multiplier on inserts whose nested values may collide and merge
      * (allocation + copy of the accumulated value). */
    nestedMerge: Double = 8.0,
    /** One-time allocation/zeroing factor for building a dense array:
      * charged per construction as denseAlloc × denseWidth. Makes @hash
      * win for very sparse outputs and @dense win once the number of
      * entries approaches the dimension width (the Fig. 8 crossover). */
    denseAlloc: Double = 0.5,
    insertLogical: Double = 64.0,
    /** Per-element penalty for +,* applied directly to dictionaries.
      * Must exceed the logical-insert penalty: a plan written as explicit
      * loops over logical dicts can still be lowered to @dense/@hash by
      * stage 2, while a dictionary-valued * or + cannot — so the
      * optimizer must prefer loop forms (Sec. 5.6 assigns dict ops ∞). */
    dictOp: Double = 256.0,
    /** Per-element cost of writing a materialized `let` binding. */
    materialize: Double = 1.0,
    scalarOp: Double = 1.0)

/** Cardinality (Fig. 5) + cost (Fig. 6) analysis. The environment holds
  * the [[Card]] each De Bruijn variable is bound to, so `sum(<k,v> in
  * e1) e2` costs `cost(e1) + γ_iter·|e1|·cost(e2)` with `v`'s card taken
  * one level down in `e1`'s nested card. */
final class CostModel(stats: Stats, p: CostParams = CostParams()) {

  type Res = (Card, Double)

  /** What the cost rule of a node may ask about its children: the card
    * and cost of child `i` with the innermost free variables bound to
    * `env`, and the operators child `i` may have (its own for a term,
    * those of its class's nodes in an e-graph). */
  private trait Children {
    def res(i: Int, env: List[Card]): Option[Res]
    def ops(i: Int): Iterator[Op]
  }

  /** Analyze a concrete expression (used in tests and for candidate
    * comparison outside the e-graph). A De Bruijn variable that no binder
    * of `e` or entry of `env` binds throws `IllegalStateException`. */
  def analyze(e: Expr, env: List[Card] = Nil): Res = {
    val (op, cs) = Op.decompose(e)
    nodeCost(op, env, new Children {
      def res(i: Int, env: List[Card]): Option[Res] = Some(analyze(cs(i), env))
      def ops(i: Int): Iterator[Op] = Iterator.single(Op.decompose(cs(i))._1)
    }).getOrElse(
      throw new IllegalStateException(s"$e is unbound in an environment of ${env.length}"))
  }

  /** The rules of Fig. 6 for one node, in the environment `env`; None
    * when a child has no cost or the node is a variable past `env`.
    * Children are costed left to right and a binder's body under the
    * variables it binds: a let's bound value, a sum's key (a scalar) and
    * value (one level into the collection), and merge's three scalars.
    * A condition's selectivity is `selEq` when it may be an `==` and
    * `selOther` otherwise. */
  private def nodeCost(op: Op, env: List[Card], children: Children): Option[Res] = {
    def child(i: Int) = children.res(i, env)
    def literal(i: Int) = children.ops(i).collectFirst { case Op.Num(v) => v }
    def rangeCount(lo: Int, hi: Int): Double =
      literal(lo).flatMap(a => literal(hi).map(b => math.max(1.0, b - a)))
        .getOrElse(stats.defaultSegment)
    op match {
      case Op.Num(_) => Some((Card.scalar, 0.0))
      case Op.Var(i) => env.lift(i).map((_, 0.0))
      case Op.Sym(n) => Some((stats.card(n), 0.0))
      case Op.Bin(b) =>
        for ((ca, costa) <- child(0); (cb, costb) <- child(1))
          yield combine(b, ca, costa, cb, costb)
      case Op.If =>
        for ((_, costc) <- child(0); (ct, costt) <- child(1)) yield {
          val sel = if (children.ops(0).contains(Op.Bin(BinOp.Eq))) stats.selEq else stats.selOther
          (ct.scaled(sel), costc + p.scalarOp + sel * costt)
        }
      case Op.Let =>
        for ((cb, costb) <- child(0); (cr, costr) <- children.res(1, cb :: env))
          yield (cr, costb + p.materialize * cb.totalSize + costr)
      case Op.Sum =>
        for {
          (cc, costc) <- child(0)
          (cb, costb) <- children.res(1, cc.value :: Card.scalar :: env)
        } yield {
          val n = math.max(1.0, cc.count)
          val gamma = if (cc.topDense) p.iterDense else p.iterHash
          (sumCard(cb, n), costc + gamma * n * costb + denseAllocCost(cb))
        }
      case Op.Dict(unique, phys) =>
        for ((_, costk) <- child(0); (cv, costv) <- child(1)) yield {
          val (ins, dense) = phys match {
            case Phys.PDense => (p.insertDense, true)
            case Phys.PHash  => (p.insertHash, false)
            case Phys.PLog   => (p.insertLogical, false)
          }
          // A colliding insert of a nested value merges dictionaries, which
          // allocates and copies; scalar collisions are a cheap += in place.
          // @unique keys, and keys that are the enclosing loop's own key
          // variable, never collide.
          val loopKeyed = children.ops(0).contains(Op.Var(1))
          val factor =
            if (unique || loopKeyed) 1.0
            else if (cv.isScalar) 1.5
            else p.nestedMerge
          (cv.nested(1.0, dense), costk + costv + ins * factor)
        }
      case Op.Get =>
        for ((cd, costd) <- child(0); (_, costk) <- child(1)) yield {
          val gamma = if (cd.topDense) p.lookupDense else p.lookupHash
          (cd.value, costd + costk + gamma)
        }
      case Op.Rng =>
        for ((_, cl) <- child(0); (_, ch) <- child(1))
          yield (Card.vec(rangeCount(0, 1), dense = true), cl + ch + p.scalarOp)
      case Op.Sub =>
        for ((ca, costa) <- child(0); (_, cl) <- child(1); (_, ch) <- child(2))
          yield (Card(1.0, Level(rangeCount(1, 2), dense = true) :: ca.levels.drop(1)),
            costa + cl + ch + p.scalarOp)
      case Op.Merge =>
        for {
          (cl, costl) <- child(0)
          (cr, costr) <- child(1)
          (cb, costb) <- children.res(2, Card.scalar :: Card.scalar :: Card.scalar :: env)
        } yield {
          val n1 = math.max(1.0, cl.count); val n2 = math.max(1.0, cr.count)
          val g1 = if (cl.topDense) p.iterDense else p.iterHash
          val g2 = if (cr.topDense) p.iterDense else p.iterHash
          (cb.scaled(math.min(n1, n2)), costl + costr + (g1 * n1 + g2 * n2) * costb)
        }
    }
  }

  private def combine(op: BinOp, ca: Card, costa: Double,
                      cb: Card, costb: Double): Res = op match {
    case BinOp.Add | BinOp.Sub =>
      if (ca.isScalar && cb.isScalar) (Card.scalar, costa + costb + p.scalarOp)
      else {
        val c = unionCard(ca, cb)
        (c, costa + costb + p.dictOp * (ca.totalSize + cb.totalSize))
      }
    case BinOp.Mul =>
      if (ca.isScalar && cb.isScalar) (Card.scalar, costa + costb + p.scalarOp)
      else {
        // semiring-module product: levels concatenate ({k->v}*e = {k->v*e})
        val c = Card(ca.weight * cb.weight, ca.levels ++ cb.levels)
        (c, costa + costb + p.dictOp * math.max(1.0, c.totalSize))
      }
    case BinOp.Div | BinOp.Mod | BinOp.IDiv | BinOp.Eq | BinOp.Lt | BinOp.Le |
         BinOp.Gt | BinOp.Ge | BinOp.And | BinOp.Or | BinOp.EvenBits | BinOp.OddBits =>
      (Card.scalar, costa + costb + p.scalarOp)
  }

  private def unionCard(a: Card, b: Card): Card = {
    val levels = a.levels.zipAll(b.levels, Level(1, true), Level(1, true)).map {
      case (x, y) => Level(x.n + y.n, x.dense && y.dense)
    }
    Card(math.max(a.weight, b.weight), levels)
  }

  /** One-time dense-array allocation charge when a sum accumulates into
    * a freshly built `@dense` dictionary. */
  private def denseAllocCost(cb: Card): Double = cb.levels match {
    case Level(w, true) :: _ if w <= 1.0 => p.denseAlloc * stats.denseWidth
    case _ => 0.0
  }

  /** Cardinality of a summation of `n` copies of `cb` (Fig. 5: n·card).
    * A summation of dense singleton dicts builds a dense array whose
    * later iteration pays the full key-space width, so its top level is
    * floored at the estimated dimension width. */
  private def sumCard(cb: Card, n: Double): Card = cb.levels match {
    case Level(w, true) :: tail if w <= 1.0 =>
      Card(1.0, Level(math.max(n * cb.weight * w, stats.denseWidth), dense = true) :: tail)
    case _ => cb.scaled(n)
  }

  // ---- cost-based extraction from an e-graph ------------------------------

  /** Extract the cheapest term of `root` from the e-graph, using the
    * environment-aware analysis (our replacement for Egg's scalar-only
    * extraction, cf. Sec. 6.6 "Cost computation"). Returns the term and
    * its estimated cost. */
  def extract(eg: EGraph, root: Int): (Expr, Double) = {
    // Environments are quantized (2 significant digits) for memoization,
    // or distinct float cardinalities make every (class, env) pair unique
    // and the search goes exponential.
    def qd(x: Double): Double =
      if (x <= 0) 0.0
      else {
        val e = math.floor(math.log10(x)) - 1
        math.round(x / math.pow(10, e)) * math.pow(10, e)
      }
    def qc(c: Card): Card =
      Card(qd(c.weight), c.levels.map(l => Level(qd(l.n), l.dense)))

    /** The children of `n`, costed by `lu` per (class, env). */
    class ClassChildren(n: ENode, lu: (Int, List[Card]) => Option[Res]) extends Children {
      def res(i: Int, env: List[Card]): Option[Res] = lu(n.child(i), env)
      def ops(i: Int): Iterator[Op] = eg.nodes(n.child(i)).iterator.map(_.op)
    }

    // ---- free variables per class ------------------------------------------
    // Memo keys in the search are restricted to the env entries a class can
    // actually read; otherwise path-dependent env chains explode the
    // (class, env) space.
    val fv = FreeVars(eg)

    // A class may be reached at a shallower depth than some of its nodes
    // can be costed at: a rule such as `a*0 → 0` unions a node that reads a
    // variable into a closed literal's class, which other terms share. Such
    // a node has no cost there, and the key holds only the bound entries
    // (those at the class's free variables below `env.length`).
    def memoKey(cls: Int, env: List[Card]): (Int, List[Card]) =
      (cls, fv.select(cls, env).map(qc))

    // ---- env-aware search over every node of a class -----------------------
    // A class already on the recursion path is cut, whatever the
    // environment: each class is on the path at most once, so the
    // recursion ends, and every result is memoized.
    val memo = mutable.HashMap.empty[(Int, List[Card]), Option[(Card, Double, ENode)]]
    val visiting = mutable.HashSet.empty[Int]
    lazy val bestLu: (Int, List[Card]) => Option[Res] =
      (cls, env) => best(cls, env).map(r => (r._1, r._2))
    def best(cls: Int, env: List[Card]): Option[(Card, Double, ENode)] = {
      val key = memoKey(cls, env)
      memo.get(key) match {
        case Some(r) => r
        case None =>
          if (!visiting.add(cls)) return None // cycle
          val candidates = eg.nodes(cls)
            .flatMap(n => nodeCost(n.op, env, new ClassChildren(n, bestLu))
              .map { case (card, cost) => (card, cost, n) })
          visiting.remove(cls)
          val r = if (candidates.isEmpty) None else Some(candidates.minBy(_._2))
          memo(key) = r
          r
      }
    }

    // Reconstruct the chosen term top-down. Each child is rebuilt in the
    // environment its cost was taken in, so a binder's body sees the card
    // of the bound subterm's best result, and the term is the one costed.
    def noTerm(cls: Int) = new IllegalStateException(s"no finite-cost term for class $cls")
    def build(cls: Int, env: List[Card]): Expr = {
      val (_, _, n) = best(cls, env).getOrElse(throw noTerm(cls))
      val envs = new Array[List[Card]](n.arity)
      nodeCost(n.op, env, new ClassChildren(n, bestLu) {
        override def res(i: Int, e: List[Card]): Option[Res] = { envs(i) = e; super.res(i, e) }
      }).getOrElse(throw noTerm(cls))
      n.op.compose(Vector.tabulate(n.arity)(i => build(n.child(i), envs(i))))
    }

    val top = eg.find(root)
    val (_, cost, _) = best(top, Nil).getOrElse(throw noTerm(top))
    (build(top, Nil), cost)
  }
}
