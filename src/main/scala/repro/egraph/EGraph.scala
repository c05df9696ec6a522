package repro.egraph

import repro.core.Expr
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** An e-node: an operator with e-class children, held flat as egg holds
  * them (Willsey et al., POPL 2021). The children are an array that only
  * the node can reach, and the hash is taken once, from the op's hash and
  * the child ids, so hash-consing neither boxes nor re-hashes children. */
final class ENode private (val op: Op, private val cs: Array[Int]) {
  require(cs.length == op.arity, s"$op takes ${op.arity} children, not ${cs.length}")

  private val hash: Int = {
    var h = op.hashCode
    var i = 0
    while (i < cs.length) {
      h = MurmurHash3.mix(h, cs(i))
      i += 1
    }
    MurmurHash3.finalizeHash(h, cs.length)
  }

  def arity: Int = cs.length
  def child(i: Int): Int = cs(i)
  /** The children, as a read-only view of the node's array. */
  def children: ArraySeq[Int] = ArraySeq.unsafeWrapArray(cs)

  /** The node with `f` applied to every child: this node itself when `f`
    * changes none. */
  def map(f: Int => Int): ENode = {
    var out: Array[Int] = null
    var i = 0
    while (i < cs.length) {
      val c = f(cs(i))
      if (out == null && c != cs(i)) out = cs.clone()
      if (out != null) out(i) = c
      i += 1
    }
    if (out == null) this else new ENode(op, out)
  }

  override def hashCode: Int = hash
  override def equals(o: Any): Boolean = o match {
    case n: ENode =>
      (n eq this) || (n.hash == hash && n.op == op && java.util.Arrays.equals(n.cs, cs))
    case _ => false
  }
  override def toString: String = cs.mkString(s"ENode($op, ", ", ", ")")
}

object ENode {
  /** A node over a copy of `children`. */
  def apply(op: Op, children: Array[Int]): ENode = new ENode(op, children.clone())
  /** A node over `children` itself, which the caller must not change. */
  private[egraph] def owning(op: Op, children: Array[Int]): ENode = new ENode(op, children)
}

/** E-graph with union-find, hash-consing, and congruence rebuilding —
  * the from-scratch substrate standing in for Egg (Sec. 5.3). A class id
  * indexes every per-class table; an id is live iff `find(id) == id`,
  * and its entries are null once it is merged away.
  */
final class EGraph {

  private val parent = mutable.ArrayBuffer.empty[Int]
  /** Canonicalized node -> class id ("memo" table). */
  private val hashcons = mutable.HashMap.empty[ENode, Int]
  /** Class id -> its e-nodes. */
  private val classes = mutable.ArrayBuffer.empty[mutable.ArrayBuffer[ENode]]
  /** Class id -> (parent node as inserted, parent class). */
  private val parents = mutable.ArrayBuffer.empty[mutable.ArrayBuffer[(ENode, Int)]]
  private val worklist = mutable.ArrayBuffer.empty[Int]

  /** Total distinct e-nodes ever memoized (Table 4's "Memos" column). */
  var memoCount: Long = 0L
  /** Bumped on every union — lets cached analyses invalidate. */
  var version: Long = 0L
  /** E-nodes across all classes, and live classes: counted as they
    * change, so that reading them costs nothing. */
  private var nodeTotal = 0
  private var live = 0

  def find(id: Int): Int = {
    var x = id
    while (parent(x) != x) {
      parent(x) = parent(parent(x))
      x = parent(x)
    }
    x
  }

  private val findF: Int => Int = find

  /** `n` with canonical children: `n` itself when they already are. */
  def canonicalize(n: ENode): ENode = n.map(findF)

  /** The size of a table indexed by class id: one more than the largest. */
  def idBound: Int = parent.length

  /** The e-nodes of the class of `id`: canonical whenever no union is
    * pending, that is, after [[rebuild]] or after `add` alone. */
  def nodes(id: Int): collection.IndexedSeq[ENode] = classes(find(id))

  /** Replaces the nodes of live class `cls`, with no other upkeep, so a
    * test can build a class that `add` and `union` cannot: say, one whose
    * only node is cyclic. */
  private[egraph] def setNodes(cls: Int, ns: Seq[ENode]): Unit =
    classes(cls) = mutable.ArrayBuffer.from(ns)

  /** The live class ids, in increasing order. */
  def classIds: Vector[Int] = {
    val ids = Vector.newBuilder[Int]
    var i = 0
    while (i < parent.length) {
      if (parent(i) == i) ids += i
      i += 1
    }
    ids.result()
  }

  def nodeCount: Int = nodeTotal
  def classCount: Int = live

  def add(n0: ENode): Int = {
    val n = canonicalize(n0)
    val known = hashcons.getOrElse(n, -1)
    if (known >= 0) find(known)
    else {
      val id = parent.length
      parent += id
      classes += mutable.ArrayBuffer(n)
      parents += mutable.ArrayBuffer.empty
      hashcons(n) = id
      memoCount += 1
      nodeTotal += 1
      live += 1
      var i = 0
      while (i < n.arity) {
        parents(find(n.child(i))) += ((n, id))
        i += 1
      }
      id
    }
  }

  def union(a0: Int, b0: Int): Int = {
    val a = find(a0); val b = find(b0)
    if (a == b) return a
    version += 1
    // merge smaller class into larger
    val (big, small) = if (classes(a).size >= classes(b).size) (a, b) else (b, a)
    parent(small) = big
    classes(big) ++= classes(small)
    classes(small) = null
    parents(big) ++= parents(small)
    parents(small) = null
    live -= 1
    worklist += big
    big
  }

  /** Restore congruence: re-canonicalize parent nodes of merged classes
    * and union classes whose nodes became identical. Every step visits
    * nodes in list order and keeps first occurrences, so the unions it
    * makes, and the ids they keep, do not depend on how nodes hash.
    * Then every live class's nodes are made canonical in place, keeping
    * the duplicates this makes, which [[nodeCount]] counts. */
  def rebuild(): Unit = {
    while (worklist.nonEmpty) {
      val todo = worklist.distinct.map(find).toVector
      worklist.clear()
      todo.foreach(repair)
    }
    classIds.foreach(cls => classes(cls).mapInPlace(canonicalize))
  }

  private def repair(id0: Int): Unit = {
    // Take the parents out: a union below that merges another class into
    // this one appends that class's parents to the emptied list, and they
    // stay there beside the repaired ones.
    val ps = parents(find(id0))
    parents(find(id0)) = mutable.ArrayBuffer.empty
    val newParents = mutable.LinkedHashMap.empty[ENode, Int]
    ps.foreach { case (pNode, pClass) =>
      val canon = canonicalize(pNode)
      if (canon eq pNode) hashcons(canon) = find(pClass)
      else {
        hashcons.remove(pNode)
        val existing = hashcons.getOrElse(canon, -1)
        if (existing >= 0) union(existing, pClass)
        else hashcons(canon) = find(pClass)
      }
      val other = newParents.getOrElse(canon, -1)
      if (other >= 0) union(other, pClass)
      else newParents(canon) = find(pClass)
    }
    // the unions above may have merged the class away: work on its root
    val cid = find(id0)
    parents(cid) ++= newParents.iterator.map { case (n, c) => (n, find(c)) }
    // dedupe the class's own nodes after canonicalization
    val ns = classes(cid)
    val canon = ns.map(canonicalize).distinct
    nodeTotal += canon.size - ns.size
    classes(cid) = mutable.ArrayBuffer.from(canon)
    canon.foreach { n =>
      val other = hashcons.getOrElse(n, -1)
      if (other >= 0 && find(other) != cid) union(other, cid)
      else hashcons(n) = cid
    }
  }

  // ---- Expr <-> e-graph -----------------------------------------------------

  /** Adds `e` bottom-up: each node after its children, left to right, as
    * a recursive walk would, but on an explicit stack, so that the depth
    * of `e` is not bounded by the thread's stack. */
  def addExpr(e: Expr): Int = {
    // a node whose children are being added: the next child's index, and
    // the classes of those before it
    final class Frame(val op: Op, val cs: Vector[Expr]) {
      val ids = new Array[Int](cs.length)
      var next = 0
    }
    def frame(e: Expr): Frame = {
      val (op, cs) = Op.decompose(e)
      new Frame(op, cs)
    }
    var stack = List(frame(e))
    var id = -1
    while (stack.nonEmpty) {
      val top = stack.head
      if (top.next < top.cs.length) stack = frame(top.cs(top.next)) :: stack
      else {
        stack = stack.tail
        id = add(ENode.owning(top.op, top.ids))
        if (stack.nonEmpty) {
          stack.head.ids(stack.head.next) = id
          stack.head.next += 1
        }
      }
    }
    id
  }
}
