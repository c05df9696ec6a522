package repro.egraph

import repro.core.Expr
import scala.collection.mutable

/** Smallest-term extraction: the tie-breaker representative used by
  * rewrite appliers that must reason about a concrete term (free-variable
  * conditions, De Bruijn shifting). Cost-based extraction lives in
  * `repro.core.Cost` — this one is purely structural. */
object Extract {

  /** For every canonical class, the (ast-size, best-node) pair, computed
    * to fixpoint bottom-up. Classes whose every node is cyclic get no
    * entry (cannot happen for graphs seeded from finite terms unless a
    * rule introduces a purely self-referential class). */
  def sizeTable(eg: EGraph): mutable.HashMap[Int, (Int, ENode)] = {
    val best = mutable.HashMap.empty[Int, (Int, ENode)]
    var changed = true
    while (changed) {
      changed = false
      eg.classes.foreach { case (cid0, nodes) =>
        val cid = eg.find(cid0)
        nodes.foreach { n0 =>
          val n = eg.canonicalize(n0)
          val childSizes = n.children.map(c => best.get(eg.find(c)).map(_._1))
          if (childSizes.forall(_.isDefined)) {
            val sz = 1 + childSizes.map(_.get).sum
            if (best.get(cid).forall(_._1 > sz)) {
              best(cid) = (sz, n)
              changed = true
            }
          }
        }
      }
    }
    best
  }

  /** Reconstruct the smallest representative [[Expr]] of every class,
    * sharing subterms. */
  def reprTable(eg: EGraph): Map[Int, Expr] = {
    val table = sizeTable(eg)
    val memo = mutable.HashMap.empty[Int, Expr]
    def build(cid0: Int): Expr = {
      val cid = eg.find(cid0)
      memo.getOrElseUpdate(cid, {
        val n = table(cid)._2
        n.op.compose(n.children.map(build))
      })
    }
    table.keysIterator.map(c => c -> build(c)).toMap
  }
}
