package repro.egraph

import repro.core.Expr
import scala.collection.mutable

/** Bottom-up extraction, after egg's `Extractor` (Willsey et al., POPL
  * 2021): the best node of every class under a cost function, computed
  * to fixpoint. Smallest-term representatives, used by rewrite appliers
  * that must reason about a concrete term (free-variable conditions,
  * De Bruijn shifting), are built on it, and so is the environment-free
  * pass of `repro.core.CostModel.extract`. */
object Extract {

  /** For every canonical class, its best node and that node's cost.
    * Sweeps `eg.classes` in order, costing each canonicalized node with
    * `cost(node, lookup)`, where `lookup` gives a child class's current
    * cost (None while it has none, which makes most cost functions give
    * None too). An entry is replaced only when `better(new, old)`. Stops
    * when a sweep changes nothing or after `maxSweeps` sweeps. Classes
    * whose every node is cyclic get no entry. */
  def fixpoint[C](eg: EGraph, maxSweeps: Int)(better: (C, C) => Boolean)(
      cost: (ENode, Int => Option[C]) => Option[C]): mutable.HashMap[Int, (C, ENode)] = {
    val best = mutable.HashMap.empty[Int, (C, ENode)]
    val lookup: Int => Option[C] = cls => best.get(cls).map(_._1)
    var changed = true
    var sweeps = 0
    while (changed && sweeps < maxSweeps) {
      changed = false
      sweeps += 1
      eg.classes.foreach { case (cid, nodes) =>
        nodes.foreach { n0 =>
          val n = eg.canonicalize(n0)
          cost(n, lookup).foreach { c =>
            if (best.get(cid).forall(old => better(c, old._1))) {
              best(cid) = (c, n)
              changed = true
            }
          }
        }
      }
    }
    best
  }

  /** The smallest term (AST size) of every class that has a finite one.
    * Sizes are integers that only fall, so the fixpoint needs no cap. The
    * sizes are computed once, here; a class's term is built the first
    * time it is asked for, sharing subterms, from the canonical ids of
    * this moment. Unions made later change no answer. */
  def representatives(eg: EGraph): Int => Option[Expr] = {
    val sizes = fixpoint[Int](eg, Int.MaxValue)(_ < _) { (n, size) =>
      n.children.foldLeft(Option(1))((acc, c) => acc.flatMap(a => size(c).map(a + _)))
    }
    val memo = mutable.HashMap.empty[Int, Expr]
    def build(cls: Int): Expr = memo.getOrElseUpdate(cls, {
      val n = sizes(cls)._2
      n.op.compose(n.children.map(build))
    })
    cls => if (sizes.contains(cls)) Some(build(cls)) else None
  }
}
