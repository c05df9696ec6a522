package repro.egraph

import repro.core.Expr

/** Smallest-term representatives, used by rewrite appliers that must
  * reason about a concrete term (free-variable conditions, De Bruijn
  * shifting). They are extracted bottom-up, after egg's `Extractor`
  * (Willsey et al., POPL 2021), with AST size as the cost. */
object Extract {

  /** The smallest term (AST size) of every class of `ids`, the live
    * class ids in increasing order, that has a finite one. Sweeps the
    * classes in that order, sizing each canonicalized node from its
    * children's current sizes, and replaces a class's entry only when a
    * node is strictly smaller; sizes are integers that only fall, so the
    * sweeps end. Classes whose every node is cyclic get no term. The
    * sizes are computed once, here; a class's term is built the first
    * time it is asked for, sharing subterms, from the canonical ids of
    * this moment. Unions made later change no answer. */
  def representatives(eg: EGraph, ids: Seq[Int]): Int => Option[Expr] = {
    // per class id: the smallest size found (0 for none yet) and its node
    val size = new Array[Int](eg.idBound)
    val node = new Array[ENode](eg.idBound)
    var changed = true
    while (changed) {
      changed = false
      ids.foreach { cid =>
        eg.nodes(cid).foreach { n0 =>
          var s = 1
          val cs = n0.children.iterator
          while (s > 0 && cs.hasNext) {
            val c = size(eg.find(cs.next()))
            s = if (c == 0) 0 else s + c
          }
          if (s > 0 && (size(cid) == 0 || s < size(cid))) {
            size(cid) = s
            node(cid) = eg.canonicalize(n0)
            changed = true
          }
        }
      }
    }
    val term = new Array[Expr](eg.idBound)
    def build(cls: Int): Expr = {
      if (term(cls) == null) {
        val n = node(cls)
        term(cls) = n.op.compose(n.children.map(build))
      }
      term(cls)
    }
    cls => if (cls < size.length && size(cls) > 0) Some(build(cls)) else None
  }
}

/** The free De Bruijn indices of every class, one bit set per class,
  * indexed by class id. */
final class FreeVars private (sets: Array[java.util.BitSet]) {

  /** The entries of `env` at the indices free in `cls`, in order. */
  def select[A](cls: Int, env: List[A]): List[A] = {
    val set = sets(cls)
    val out = List.newBuilder[A]
    var rest = env // env.drop(at)
    var at = 0
    var i = set.nextSetBit(0)
    while (i >= 0 && rest.nonEmpty) {
      rest = rest.drop(i - at)
      at = i
      if (rest.nonEmpty) out += rest.head
      i = set.nextSetBit(i + 1)
    }
    out.result()
  }
}

object FreeVars {
  /** The least sets of the classes `ids` (live, in increasing order, with
    * canonical nodes `nodesOf(cls)`) in which a class holds the index of
    * each of its variable nodes, and each index `j` free in a child that a
    * node binds `b` variables in as `j - b`, when that is not negative.
    * The sets only grow, over finitely many indices, so the sweeps end. */
  def apply(ids: Seq[Int], nodesOf: collection.IndexedSeq[Seq[ENode]]): FreeVars = {
    val sets = new Array[java.util.BitSet](nodesOf.length)
    ids.foreach(cls => sets(cls) = new java.util.BitSet)
    // Adds what the nodes of `cls` read to its set; true when it grew. A
    // class that is its own child gains only indices the walk has passed.
    def update(cls: Int): Boolean = {
      val set = sets(cls)
      val before = set.cardinality
      nodesOf(cls).foreach { n =>
        n.op match {
          case Op.Var(i) => set.set(i)
          case op => n.children.indices.foreach { j =>
            val child = sets(n.children(j))
            val b = op.binds(j)
            var i = child.nextSetBit(b)
            while (i >= 0) {
              set.set(i - b)
              i = child.nextSetBit(i + 1)
            }
          }
        }
      }
      set.cardinality != before
    }
    var changed = true
    while (changed) {
      changed = false
      ids.foreach(cls => if (update(cls)) changed = true)
    }
    new FreeVars(sets)
  }
}
