package repro.egraph

import repro.core.Expr
import scala.annotation.tailrec
import scala.collection.mutable

/** Right-hand-side templates for rewrite rules. [[RVar]] reuses the
  * matched e-class directly (no shifting); [[RRemap]] extracts the
  * matched class's smallest representative, remaps its free De Bruijn
  * indices, and re-inserts it, once per class and iteration
  * ([[RuleCtx]]) — the standard workaround for moving terms across
  * binders inside an e-graph (Sec. 5.4). */
sealed trait RT
final case class RVar(n: String) extends RT
final case class RNode(op: Op, cs: RT*) extends RT
final case class RRemap(n: String, f: Int => Int) extends RT
final case class RLit(e: Expr) extends RT
/** Node whose op is computed from the match (e.g. a dict that keeps its
  * phys flag but drops @unique). */
final case class RNodeF(opf: (RuleCtx, Subst) => Op, cs: RT*) extends RT

/** Context handed to appliers: representative terms are those of
  * [[Extract.representatives]] taken at the start of the iteration,
  * keyed by the class ids stored in the substitution (canonical at match
  * time), so the unions made while matches are applied change none of
  * them. `symIsScalar` exposes the statistics' knowledge of which global
  * symbols are scalars, for type-gated rules. */
final class RuleCtx(val eg: EGraph, reprs: Int => Option[Expr],
                    val symIsScalar: String => Boolean = _ => false) {
  def repr(cls: Int): Expr =
    reprs(cls).getOrElse(throw new IllegalStateException(s"class $cls has no representative"))

  private val facts = mutable.LongMap.empty[Boolean]

  /** `test` of the class's representative, decided once per class: the
    * representatives are fixed for the whole iteration, so the memo is
    * exact. Tests with equal keys (see [[Rule.onRepr]]) share their
    * answers. */
  private[egraph] def holds(key: Int, cls: Int)(test: Expr => Boolean): Boolean =
    facts.getOrElseUpdate((key.toLong << 32) | cls, test(repr(cls)))

  private val remapped = mutable.HashMap.empty[RRemap, mutable.LongMap[Int]]

  /** The class of `t` instantiated at class `cls`: the representative
    * with its free indices remapped, inserted once per (class, template)
    * and read back through `find` after that. The representatives are
    * fixed for the whole iteration, so the same pair always gives the
    * same term, and inserting it again would only copy nodes that hash
    * differently until the next rebuild merges them. */
  private[egraph] def remap(t: RRemap, cls: Int): Int = {
    val byClass = remapped.getOrElseUpdate(t, mutable.LongMap.empty[Int])
    byClass.get(cls.toLong) match {
      case Some(id) => eg.find(id)
      case None =>
        val id = eg.addExpr(Expr.remapFree(repr(cls), t.f))
        byClass(cls.toLong) = id
        id
    }
  }
}

final case class Rule(
    name: String,
    lhs: Pat,
    rhs: (RuleCtx, Subst) => Option[Int],
    cond: (RuleCtx, Subst) => Boolean = (_, _) => true) {
  val program: Program = Program.compile(lhs)
}

object Rule {

  /** An RHS template compiled, once, into the function from a match to
    * the e-class it instantiates, as [[Program.compile]] does for the
    * LHS. A node's op, then its children, left to right, are computed
    * per match. */
  private def compile(t: RT): (RuleCtx, Subst) => Int = t match {
    case RVar(n)   => (_, s) => s(n)
    case RLit(e)   => (ctx, _) => ctx.eg.addExpr(e)
    case t: RRemap => (ctx, s) => ctx.remap(t, s(t.n))
    case RNode(op, cs @ _*) =>
      val children = cs.toArray.map(compile)
      (ctx, s) => ctx.eg.add(ENode.owning(op, classes(children, ctx, s)))
    case RNodeF(opf, cs @ _*) =>
      val children = cs.toArray.map(compile)
      (ctx, s) => ctx.eg.add(ENode.owning(opf(ctx, s), classes(children, ctx, s)))
  }

  private def classes(children: Array[(RuleCtx, Subst) => Int], ctx: RuleCtx, s: Subst): Array[Int] = {
    val ids = new Array[Int](children.length)
    var i = 0
    while (i < ids.length) {
      ids(i) = children(i)(ctx, s)
      i += 1
    }
    ids
  }

  /** Simple rule: pattern -> template. */
  def simple(name: String, lhs: Pat, rhs: RT,
             cond: (RuleCtx, Subst) => Boolean = (_, _) => true): Rule = {
    val instantiate = compile(rhs)
    Rule(name, lhs, (ctx, s) => Some(instantiate(ctx, s)), cond)
  }

  /** Condition keys, each numbered once, when its condition is built. */
  private val keyIds = mutable.HashMap.empty[Any, Int]

  /** Condition on the representative of the class bound to `n`,
    * memoized per class for the iteration under `key` (see
    * [[RuleCtx.holds]]): conditions with equal keys share their answers,
    * so equal keys must name equal tests. */
  def onRepr(n: String, key: Any)(test: (RuleCtx, Expr) => Boolean): (RuleCtx, Subst) => Boolean = {
    val id = keyIds.synchronized(keyIds.getOrElseUpdate(key, keyIds.size))
    (ctx, s) => ctx.holds(id, s(n))(test(ctx, _))
  }

  /** Condition: the matched class has a representative whose free
    * variables avoid `banned` — sound because any representative without
    * the variable denotes a value independent of it. */
  def fvAvoid(n: String, banned: Set[Int]): (RuleCtx, Subst) => Boolean =
    onRepr(n, ("fvAvoid", banned))((_, e) => Expr.freeVars(e).intersect(banned).isEmpty)

  def allOf(cs: ((RuleCtx, Subst) => Boolean)*): (RuleCtx, Subst) => Boolean =
    (ctx, s) => cs.forall(_(ctx, s))
}

/** Saturation limits and the metrics the paper reports in Table 4. The
  * node budget is checked between iterations, as in egg: an iteration
  * applies all of its matches, so no rule late in the list is starved.
  * The timeout is a safety abort, also checked between iterations; the
  * defaults bound the search by nodes and iterations so that it never
  * fires, and the plan does not depend on machine speed. */
final case class SatConfig(
    maxIters: Int = 20,
    maxNodes: Int = 12000,
    timeoutMs: Long = 60000)

/** `stop` is why the run ended: [[RunStats.Saturated]], [[RunStats.NodeCap]],
  * [[RunStats.IterCap]] or [[RunStats.Timeout]]. The phase times split
  * `timeMs` over the iterations: e-matching, rule application, rebuild,
  * and the representative table of [[Extract.representatives]]. */
final case class RunStats(
    timeMs: Double, iters: Int, nodes: Int, classes: Int, memos: Long,
    stop: RunStats.Stop = RunStats.Saturated,
    matchMs: Double = 0, applyMs: Double = 0, rebuildMs: Double = 0, reprMs: Double = 0) {
  def saturated: Boolean = stop == RunStats.Saturated
  /** Aggregate of consecutive runs; keeps the first stop reason that is
    * not [[RunStats.Saturated]]. */
  def +(o: RunStats): RunStats = RunStats(
    timeMs + o.timeMs, iters + o.iters, math.max(nodes, o.nodes),
    math.max(classes, o.classes), memos + o.memos,
    if (stop != RunStats.Saturated) stop else o.stop,
    matchMs + o.matchMs, applyMs + o.applyMs, rebuildMs + o.rebuildMs, reprMs + o.reprMs)
}

object RunStats {
  /** Why a saturation run ended; prints as its name in Table 4. */
  sealed abstract class Stop(name: String) {
    override def toString: String = name
  }
  case object Saturated extends Stop("saturated")
  case object NodeCap extends Stop("node_cap")
  case object IterCap extends Stop("iter_cap")
  case object Timeout extends Stop("timeout")
}

object Saturate {

  /** Run equality saturation: repeatedly e-match all rules against all
    * classes, apply the matches, and rebuild congruence, until nothing
    * changes or a limit is hit (Sec. 5.3). Limits are checked after each
    * rebuild, in the order saturated, node cap, timeout, iteration cap. */
  def run(eg: EGraph, rules: Seq[Rule], cfg: SatConfig = SatConfig(),
          symIsScalar: String => Boolean = _ => false): RunStats = {
    val t0 = System.nanoTime()
    def elapsed: Double = (System.nanoTime() - t0) / 1e6
    var reprNs, matchNs, applyNs, rebuildNs = 0L
    var last = 0L
    /** Nanoseconds since the previous lap. */
    def lap(): Long = {
      val now = System.nanoTime()
      val d = now - last
      last = now
      d
    }

    /** One iteration: match every rule against the e-graph, apply all
      * the matches, and rebuild. False when it changed nothing. */
    def step(): Boolean = {
      lap()
      val ids = eg.classIds
      val ctx = new RuleCtx(eg, Extract.representatives(eg, ids), symIsScalar)
      val memoBefore = eg.memoCount
      val classesBefore = eg.classCount
      reprNs += lap()

      // Collect matches first (egg-style), then apply.
      val matches = mutable.ArrayBuffer.empty[(Rule, Subst, Int)]
      val index = new OpIndex(eg, ids)
      rules.foreach { rule =>
        index.candidates(rule.program).foreach { cls =>
          rule.program.search(index, cls) { s =>
            if (rule.cond(ctx, s)) matches += ((rule, s, cls))
          }
        }
      }
      matchNs += lap()

      matches.foreach { case (rule, s, cls) =>
        rule.rhs(ctx, s).foreach(newCls => eg.union(cls, newCls))
      }
      applyNs += lap()
      eg.rebuild()
      rebuildNs += lap()
      // with no new memo, the class count moves exactly when a union did
      eg.memoCount != memoBefore || eg.classCount != classesBefore
    }

    @tailrec def loop(iter: Int): (Int, RunStats.Stop) =
      if (iter >= cfg.maxIters) (iter, RunStats.IterCap)
      else if (!step()) (iter + 1, RunStats.Saturated)
      else if (eg.nodeCount >= cfg.maxNodes) (iter + 1, RunStats.NodeCap)
      else if (elapsed >= cfg.timeoutMs) (iter + 1, RunStats.Timeout)
      else loop(iter + 1)
    val (iters, stop) = loop(0)
    RunStats(elapsed, iters, eg.nodeCount, eg.classCount, eg.memoCount, stop,
      matchMs = matchNs / 1e6, applyMs = applyNs / 1e6, rebuildMs = rebuildNs / 1e6,
      reprMs = reprNs / 1e6)
  }
}
