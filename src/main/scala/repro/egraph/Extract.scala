package repro.egraph

import repro.core.Expr
import scala.collection.mutable

/** Smallest-term representatives, used by rewrite appliers that must
  * reason about a concrete term (free-variable conditions, De Bruijn
  * shifting). They are extracted bottom-up, after egg's `Extractor`
  * (Willsey et al., POPL 2021), with AST size as the cost. */
object Extract {

  /** The smallest term (AST size) of every class that has a finite one.
    * Sweeps `eg.classes` in order, sizing each canonicalized node from
    * its children's current sizes, and replaces a class's entry only when
    * a node is strictly smaller; sizes are integers that only fall, so
    * the sweeps end. Classes whose every node is cyclic get no term. The
    * sizes are computed once, here; a class's term is built the first
    * time it is asked for, sharing subterms, from the canonical ids of
    * this moment. Unions made later change no answer. */
  def representatives(eg: EGraph): Int => Option[Expr] = {
    val sizes = mutable.HashMap.empty[Int, (Int, ENode)]
    var changed = true
    while (changed) {
      changed = false
      eg.classes.foreach { case (cid, nodes) =>
        nodes.foreach { n0 =>
          val n = eg.canonicalize(n0)
          n.children.foldLeft(Option(1))((acc, c) => acc.flatMap(a => sizes.get(c).map(a + _._1)))
            .foreach { size =>
              if (sizes.get(cid).forall(size < _._1)) {
                sizes(cid) = (size, n)
                changed = true
              }
            }
        }
      }
    }
    val memo = mutable.HashMap.empty[Int, Expr]
    def build(cls: Int): Expr = memo.getOrElseUpdate(cls, {
      val n = sizes(cls)._2
      n.op.compose(n.children.map(build))
    })
    cls => if (sizes.contains(cls)) Some(build(cls)) else None
  }
}
