package repro.core

import java.util.IdentityHashMap
import scala.collection.mutable.ArrayBuffer

/** Loop-invariant code motion on a finished plan: let-floating (Peyton
  * Jones, Partain and Santos, *Let-floating*, ICFP 1996), as SDQL hoists
  * loop invariants (Shaikhha et al., OOPSLA 2022). A `sum` or `merge`
  * subterm `t` of a loop body that reads neither the loop's binders nor
  * any binder between the loop and itself is computed once, before the
  * loop:
  *
  * {{{
  *   sum(<k,v> in c) B[t]  ->  let x = t' in sum(<k,v> in c') B'[x]
  * }}}
  *
  * and the same for `merge` and its three binders. Loops are rewritten
  * innermost first, and each one again until its body holds no invariant
  * loop, so a closed term ends up at the top of the plan and any other
  * term just outside the outermost loop it is invariant in. Only loops
  * are floated past: a term under a `let` or an `if` alone stays put.
  *
  * Identical invariant terms of one loop body share one `let`, and the
  * lets follow the terms' first pre-order occurrence. A term that is the
  * bound of a `let` replaces that `let`'s variable instead of leaving an
  * alias behind. When nothing floats, `apply` returns its argument. The
  * result is the same function of the symbols, but not always a cheaper
  * plan (a floated term is computed even when its loop runs no
  * iteration), so [[Optimizer.optimize]] keeps it only if it costs no
  * more.
  */
object Hoist {

  def apply(e: Expr): Expr = {
    // Free variables per node instance, each computed once from its
    // children's; rewritten nodes are new instances and get their own.
    val fvMemo = new IdentityHashMap[Expr, Set[Int]]
    def fv(e: Expr): Set[Int] = {
      val known = fvMemo.get(e)
      if (known != null) known
      else {
        val s = e match {
          case Vr(i) => Set(i)
          case _ =>
            var acc = Set.empty[Int]
            Expr.mapChildren(e) { (c, n) => fv(c).foreach(i => if (i >= n) acc += i - n); c }
            acc
        }
        fvMemo.put(e, s)
        s
      }
    }

    /** `e` with the invariant loops of its body, if it is a loop, bound
      * by lets just outside it. */
    def floatOut(e: Expr): Expr = e match {
      case Sum(c, b) => floatBody(e, 2, b, (m, b1) => Sum(Expr.shift(c, m), b1))
      case Merge(l, r, b) =>
        floatBody(e, 3, b, (m, b1) => Merge(Expr.shift(l, m), Expr.shift(r, m), b1))
      case _ => e
    }

    /** `loop`, binding `nb` variables over `body`; `rebuild(m, body1)` is
      * the loop with `body1` for its body, under `m` new lets. */
    def floatBody(loop: Expr, nb: Int, body: Expr, rebuild: (Int, Expr) => Expr): Expr = {
      // A loop `d` binders into the body that reads only what is bound
      // outside `loop`.
      def invariant(t: Expr, d: Int): Boolean = (t match {
        case Sum(_, _) | Merge(_, _, _) => true
        case _ => false
      }) && fv(t).forall(_ >= d + nb)

      // The invariant terms, maximal and in pre-order, as seen from
      // outside `loop`, each once.
      val found = ArrayBuffer.empty[Expr]
      def collect(t: Expr, d: Int): Expr = {
        if (invariant(t, d)) {
          val out = Expr.shift(t, -(d + nb))
          if (!found.contains(out)) found += out
        } else Expr.mapChildren(t)((c, n) => collect(c, d + n))
        t
      }
      collect(body, 0)
      if (found.isEmpty) return loop

      // The body under `m` new lets: the j-th let's variable is
      // `d + nb + m - 1 - j` at depth `d`, and every other variable bound
      // outside `loop` moves up by `m`.
      val m = found.length
      def letVar(t: Expr, d: Int): Expr =
        Vr(d + nb + m - 1 - found.indexOf(Expr.shift(t, -(d + nb))))
      def rewrite(t: Expr, d: Int): Expr = t match {
        case _ if invariant(t, d) => letVar(t, d)
        case Let(b, rest) if invariant(b, d) => Expr.subst(rewrite(rest, d + 1), 0, letVar(b, d))
        case Vr(i) => if (i >= d + nb) Vr(i + m) else t
        case _ => Expr.mapChildren(t)((c, n) => rewrite(c, d + n))
      }
      found.zipWithIndex.foldRight(floatOut(rebuild(m, rewrite(body, 0)))) {
        case ((t, j), acc) => Let(Expr.shift(t, j), acc)
      }
    }

    def go(e: Expr): Expr = floatOut(Expr.mapChildren(e)((c, _) => go(c)))
    go(e)
  }
}
