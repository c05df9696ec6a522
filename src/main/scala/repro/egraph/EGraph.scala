package repro.egraph

import repro.core.Expr
import scala.collection.mutable

/** An e-node: an operator with e-class children. */
final case class ENode(op: Op, children: Vector[Int]) {
  def map(f: Int => Int): ENode = ENode(op, children.map(f))
}

/** E-graph with union-find, hash-consing, and congruence rebuilding —
  * the from-scratch substrate standing in for Egg (Sec. 5.3).
  */
final class EGraph {

  private val parent = mutable.ArrayBuffer.empty[Int]
  /** Canonicalized node -> class id ("memo" table). */
  val hashcons = mutable.HashMap.empty[ENode, Int]
  /** Canonical class id -> its e-nodes. */
  val classes = mutable.HashMap.empty[Int, mutable.ArrayBuffer[ENode]]
  /** Canonical class id -> (parent node as inserted, parent class). */
  private val parents = mutable.HashMap.empty[Int, mutable.ArrayBuffer[(ENode, Int)]]
  private val worklist = mutable.ArrayBuffer.empty[Int]

  /** Total distinct e-nodes ever memoized (Table 4's "Memos" column). */
  var memoCount: Long = 0L
  /** Bumped on every union — lets cached analyses invalidate. */
  var version: Long = 0L

  def find(id: Int): Int = {
    var x = id
    while (parent(x) != x) {
      parent(x) = parent(parent(x))
      x = parent(x)
    }
    x
  }

  def canonicalize(n: ENode): ENode = n.map(find)

  /** Number of e-nodes currently stored across all classes, kept by
    * `add` and `repair` so that reading it costs nothing. */
  private var nodes = 0
  def nodeCount: Int = nodes
  def classCount: Int = classes.size

  def add(n0: ENode): Int = {
    val n = canonicalize(n0)
    hashcons.get(n) match {
      case Some(id) => find(id)
      case None =>
        val id = parent.length
        parent += id
        classes(id) = mutable.ArrayBuffer(n)
        parents(id) = mutable.ArrayBuffer.empty
        hashcons(n) = id
        memoCount += 1
        nodes += 1
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
    classes.remove(small)
    parents(big) ++= parents(small)
    parents.remove(small)
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
    val id = find(id0)
    val ps = parents.getOrElse(id, mutable.ArrayBuffer.empty).toVector
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
    if (parents.contains(find(id0))) {
      parents(find(id0)) = mutable.ArrayBuffer.from(
        newParents.iterator.map { case (n, c) => (n, find(c)) })
    }
    // dedupe the class's own nodes after canonicalization
    val cid = find(id0)
    classes.get(cid).foreach { ns =>
      val canon = ns.map(canonicalize).distinct
      nodes += canon.size - ns.size
      classes(cid) = mutable.ArrayBuffer.from(canon)
      canon.foreach { n =>
        hashcons.get(n) match {
          case Some(other) if find(other) != cid => union(other, cid)
          case _ => hashcons(n) = cid
        }
      }
    }
  }

  // ---- Expr <-> e-graph -----------------------------------------------------

  def addExpr(e: Expr): Int = {
    val (op, cs) = Op.decompose(e)
    add(ENode(op, cs.map(addExpr)))
  }

  /** All canonical class ids: the keys of `classes`, since `add` keys a
    * fresh root and `union` removes the class it merges away. */
  def classIds: Vector[Int] = classes.keysIterator.toVector
}
