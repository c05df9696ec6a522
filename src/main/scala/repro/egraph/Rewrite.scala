package repro.egraph

import repro.core.Expr
import scala.collection.mutable

/** Right-hand-side templates for rewrite rules. [[RVar]] reuses the
  * matched e-class directly (no shifting); [[RRemap]] extracts the
  * matched class's smallest representative, remaps its free De Bruijn
  * indices, and re-inserts it — the standard workaround for moving terms
  * across binders inside an e-graph (Sec. 5.4). */
sealed trait RT
final case class RVar(n: String) extends RT
final case class RNode(op: Op, cs: RT*) extends RT
final case class RRemap(n: String, f: Int => Int) extends RT
final case class RLit(e: Expr) extends RT
/** Node whose op is computed from the match (e.g. a dict that keeps its
  * phys flag but drops @unique). */
final case class RNodeF(opf: (RuleCtx, Subst) => Op, cs: RT*) extends RT

/** Context handed to appliers: representative terms are from the table
  * computed at the start of the iteration, keyed by the class ids stored
  * in the substitution (canonical at match time). `symIsScalar` exposes
  * the statistics' knowledge of which global symbols are scalars, for
  * type-gated rules. */
final class RuleCtx(val eg: EGraph, reprs: Map[Int, Expr],
                    val symIsScalar: String => Boolean = _ => false) {
  def repr(cls: Int): Expr =
    reprs.getOrElse(cls, throw new IllegalStateException(s"class $cls has no representative"))

  private val facts = mutable.HashMap.empty[(Any, Int), Boolean]

  /** `test` of the class's representative, decided once per class: the
    * representative table is fixed for the whole iteration, so the memo
    * is exact. Tests with equal keys share their answers. */
  def holds(key: Any, cls: Int)(test: Expr => Boolean): Boolean =
    facts.getOrElseUpdate((key, cls), test(repr(cls)))
}

final case class Rule(
    name: String,
    lhs: Pat,
    rhs: (RuleCtx, Subst) => Option[Int],
    cond: (RuleCtx, Subst) => Boolean = (_, _) => true) {
  val program: Program = Program.compile(lhs)
}

object Rule {

  /** Instantiate an RHS template, returning its e-class. */
  def instantiate(ctx: RuleCtx, s: Subst, t: RT): Int = t match {
    case RVar(n)    => s(n)
    case RLit(e)    => ctx.eg.addExpr(e)
    case RRemap(n, f) =>
      ctx.eg.addExpr(Expr.remapFree(ctx.repr(s(n)), f))
    case RNode(op, cs @ _*) =>
      ctx.eg.add(ENode(op, cs.toVector.map(instantiate(ctx, s, _))))
    case RNodeF(opf, cs @ _*) =>
      ctx.eg.add(ENode(opf(ctx, s), cs.toVector.map(instantiate(ctx, s, _))))
  }

  /** Simple rule: pattern -> template. */
  def simple(name: String, lhs: Pat, rhs: RT,
             cond: (RuleCtx, Subst) => Boolean = (_, _) => true): Rule =
    Rule(name, lhs, (ctx, s) => Some(instantiate(ctx, s, rhs)), cond)

  /** Condition on the representative of the class bound to `n`,
    * memoized per class for the iteration under `key` (see
    * [[RuleCtx.holds]]). */
  def onRepr(n: String, key: Any)(test: (RuleCtx, Expr) => Boolean): (RuleCtx, Subst) => Boolean =
    (ctx, s) => ctx.holds(key, s(n))(test(ctx, _))

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
  * [[RunStats.IterCap]] or [[RunStats.Timeout]]. */
final case class RunStats(
    timeMs: Double, iters: Int, nodes: Int, classes: Int, memos: Long,
    stop: String = RunStats.Saturated) {
  def saturated: Boolean = stop == RunStats.Saturated
  /** Aggregate of consecutive runs; keeps the first stop reason that is
    * not [[RunStats.Saturated]]. */
  def +(o: RunStats): RunStats = RunStats(
    timeMs + o.timeMs, iters + o.iters, math.max(nodes, o.nodes),
    math.max(classes, o.classes), memos + o.memos,
    if (stop != RunStats.Saturated) stop else o.stop)
}

object RunStats {
  val Saturated = "saturated"
  val NodeCap = "node_cap"
  val IterCap = "iter_cap"
  val Timeout = "timeout"
}

object Saturate {

  /** Run equality saturation: repeatedly e-match all rules against all
    * classes, apply the matches, and rebuild congruence, until nothing
    * changes or a limit is hit (Sec. 5.3). Limits are checked after each
    * rebuild, in the order saturated, node cap, timeout, iteration cap. */
  def run(eg: EGraph, rules: Seq[Rule], cfg: SatConfig = SatConfig(),
          symIsScalar: String => Boolean = _ => false): RunStats = {
    val t0 = System.nanoTime()
    var iter = 0
    var elapsed = 0.0
    var stop: String = null
    while (stop == null && iter < cfg.maxIters) {
      iter += 1
      val reprs = Extract.reprTable(eg)
      val ctx = new RuleCtx(eg, reprs, symIsScalar)
      val versionBefore = eg.version
      val memoBefore = eg.memoCount

      // Collect matches first (egg-style), then apply.
      val matches = mutable.ArrayBuffer.empty[(Rule, Subst, Int)]
      val index = new RootIndex(eg, eg.classIds)
      rules.foreach { rule =>
        index.candidates(rule.program).foreach { cls =>
          rule.program.search(eg, cls) { s =>
            if (rule.cond(ctx, s)) matches += ((rule, s, cls))
          }
        }
      }

      matches.foreach { case (rule, s, cls) =>
        rule.rhs(ctx, s).foreach(newCls => eg.union(cls, newCls))
      }
      eg.rebuild()

      elapsed = (System.nanoTime() - t0) / 1e6
      if (eg.version == versionBefore && eg.memoCount == memoBefore) stop = RunStats.Saturated
      else if (eg.nodeCount >= cfg.maxNodes) stop = RunStats.NodeCap
      else if (elapsed >= cfg.timeoutMs) stop = RunStats.Timeout
    }
    if (stop == null) stop = RunStats.IterCap
    RunStats(elapsed, iter, eg.nodeCount, eg.classCount, eg.memoCount, stop)
  }
}
