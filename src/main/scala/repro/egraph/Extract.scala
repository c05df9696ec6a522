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
    // per class id: the smallest size found (0 for none yet) and its node
    val ids = if (eg.classes.isEmpty) 0 else eg.classes.keysIterator.max + 1
    val size = new Array[Int](ids)
    val node = new Array[ENode](ids)
    var changed = true
    while (changed) {
      changed = false
      eg.classes.foreach { case (cid, nodes) =>
        nodes.foreach { n0 =>
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
    val memo = mutable.HashMap.empty[Int, Expr]
    def build(cls: Int): Expr = memo.getOrElseUpdate(cls, {
      val n = node(cls)
      n.op.compose(n.children.map(build))
    })
    cls => if (cls < size.length && size(cls) > 0) Some(build(cls)) else None
  }
}

/** The free De Bruijn indices of every class, as bits: word 0 (indices 0
  * to 63) in `low` and the words above it in `high`, both indexed by
  * class id; `high` is null for a class that reads no index of 64 or
  * more, which is nearly every class. */
final class FreeVars private (low: Array[Long], high: Array[Array[Long]]) {

  private def words(cls: Int): Int = if (high(cls) == null) 1 else 1 + high(cls).length

  /** Word `w` of the set of `cls`, 0 past its end. */
  private def word(cls: Int, w: Int): Long =
    if (w == 0) low(cls) else if (w < words(cls)) high(cls)(w - 1) else 0L

  /** The entries of `env` at the indices free in `cls`, in order. */
  def select[A](cls: Int, env: List[A]): List[A] = {
    val out = List.newBuilder[A]
    var rest = env // env.drop(at)
    var at = 0
    var w = 0
    while (w < words(cls) && rest.nonEmpty) {
      var x = word(cls, w)
      while (x != 0 && rest.nonEmpty) {
        val i = (w << 6) + java.lang.Long.numberOfTrailingZeros(x)
        rest = rest.drop(i - at)
        at = i
        if (rest.nonEmpty) out += rest.head
        x &= x - 1
      }
      w += 1
    }
    out.result()
  }

  /** Adds to the set of `cls` the indices its `nodes` read: a variable's
    * own, and each of a child's shifted right by the number of variables
    * the node binds there. True when the set grew. */
  private def update(cls: Int, nodes: Seq[ENode]): Boolean = {
    // shifting right never lengthens a set, so this many words hold it
    var size = words(cls)
    nodes.iterator.foreach { n =>
      n.op match {
        case Op.Var(i) => size = math.max(size, (i >>> 6) + 1)
        case _ => n.children.foreach(c => size = math.max(size, words(c)))
      }
    }
    val acc = Array.tabulate(size)(word(cls, _))
    nodes.iterator.foreach { n =>
      n.op match {
        case Op.Var(i) => acc(i >>> 6) |= 1L << (i & 63)
        case op =>
          var j = 0
          while (j < n.children.length) {
            val c = n.children(j)
            val b = op.binds(j)
            var w = 0
            while (w < words(c)) {
              // word w of the child's set shifted right by b: its own bits
              // from b up, then the low b bits of the word above
              acc(w) |= (word(c, w) >>> b) | (if (b == 0) 0L else word(c, w + 1) << (64 - b))
              w += 1
            }
            j += 1
          }
      }
    }
    val grew = acc.indices.exists(w => acc(w) != word(cls, w))
    if (grew) {
      low(cls) = acc(0)
      val used = acc.lastIndexWhere(_ != 0) + 1
      if (used > 1) high(cls) = java.util.Arrays.copyOfRange(acc, 1, used)
    }
    grew
  }
}

object FreeVars {
  /** The least sets of the classes of `nodesOf` (each class's canonical
    * nodes, keyed by its id) in which a class holds the index of each of
    * its variable nodes, and each index `j` free in a child that a node
    * binds `b` variables in as `j - b`, when that is not negative. The
    * sets only grow, over finitely many indices, so the sweeps end. */
  def apply(nodesOf: collection.Map[Int, Seq[ENode]]): FreeVars = {
    val n = if (nodesOf.isEmpty) 0 else nodesOf.keysIterator.max + 1
    val fv = new FreeVars(new Array[Long](n), new Array[Array[Long]](n))
    var changed = true
    while (changed) {
      changed = false
      nodesOf.foreach { case (cls, nodes) => if (fv.update(cls, nodes)) changed = true }
    }
    fv
  }
}
