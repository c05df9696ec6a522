package repro.egraph

import repro.core.Expr
import scala.collection.mutable

/** An e-node: an operator with e-class children. */
final case class ENode(op: Op, children: Vector[Int]) {
  def map(f: Int => Int): ENode = ENode(op, children.map(f))
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

  def canonicalize(n: ENode): ENode = n.map(find)

  /** The size of a table indexed by class id: one more than the largest. */
  def idBound: Int = parent.length

  /** The e-nodes of the class of `id`, as inserted (not canonicalized). */
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
    hashcons.get(n) match {
      case Some(id) => find(id)
      case None =>
        val id = parent.length
        parent += id
        classes += mutable.ArrayBuffer(n)
        parents += mutable.ArrayBuffer.empty
        hashcons(n) = id
        memoCount += 1
        nodeTotal += 1
        live += 1
        n.children.foreach { c => parents(find(c)) += ((n, id)) }
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
    * and union classes whose nodes became identical. */
  def rebuild(): Unit = {
    while (worklist.nonEmpty) {
      val todo = worklist.distinct.map(find).toVector
      worklist.clear()
      todo.foreach(repair)
    }
  }

  private def repair(id0: Int): Unit = {
    val ps = parents(find(id0)).toVector
    val newParents = mutable.HashMap.empty[ENode, Int]
    ps.foreach { case (pNode, pClass) =>
      val canon = canonicalize(pNode)
      hashcons.remove(pNode)
      hashcons.get(canon) match {
        case Some(existing) => union(existing, pClass)
        case None => hashcons(canon) = find(pClass)
      }
      newParents.get(canon) match {
        case Some(other) => union(other, pClass)
        case None => newParents(canon) = find(pClass)
      }
    }
    // the unions above may have merged the class away: work on its root
    val cid = find(id0)
    parents(cid) = mutable.ArrayBuffer.from(
      newParents.iterator.map { case (n, c) => (n, find(c)) })
    // dedupe the class's own nodes after canonicalization
    val ns = classes(cid)
    val canon = ns.map(canonicalize).distinct
    nodeTotal += canon.size - ns.size
    classes(cid) = mutable.ArrayBuffer.from(canon)
    canon.foreach { n =>
      hashcons.get(n) match {
        case Some(other) if find(other) != cid => union(other, cid)
        case _ => hashcons(n) = cid
      }
    }
  }

  // ---- Expr <-> e-graph -----------------------------------------------------

  def addExpr(e: Expr): Int = {
    val (op, cs) = Op.decompose(e)
    add(ENode(op, cs.map(addExpr)))
  }
}
