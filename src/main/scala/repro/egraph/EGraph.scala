package repro.egraph

import repro.core._
import scala.collection.mutable

/** An e-node: an operator with e-class children. Leaf payloads (numbers,
  * De Bruijn indices, symbol names) are encoded in the op string. */
final case class ENode(op: String, children: Vector[Int]) {
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
    val (op, cs) = EGraph.decompose(e)
    add(ENode(op, cs.map(addExpr)))
  }

  /** All canonical class ids. */
  def classIds: Vector[Int] = classes.keysIterator.map(find).toVector.distinct
}

object EGraph {

  private def physCode(p: Phys): String = p match {
    case Phys.PLog => "l"; case Phys.PDense => "d"; case Phys.PHash => "h"
  }
  private def physOf(c: Char): Phys = c match {
    case 'l' => Phys.PLog; case 'd' => Phys.PDense; case 'h' => Phys.PHash
  }

  /** Expr -> (op string, children). Leaf payloads live in the op. */
  def decompose(e: Expr): (String, Vector[Expr]) = e match {
    case Num(v)        => (s"num:$v", Vector.empty)
    case Vr(i)         => (s"var:$i", Vector.empty)
    case Sym(n)        => (s"sym:$n", Vector.empty)
    case Bin(op, a, b) => (s"bin:$op", Vector(a, b))
    case IfThen(c, t)  => ("if", Vector(c, t))
    case Let(b, e2)    => ("let", Vector(b, e2))
    case Sum(c, b)     => ("sum", Vector(c, b))
    case Dict(k, v, u, p) => (s"dict:${if (u) "u" else "-"}${physCode(p)}", Vector(k, v))
    case Get(d, k)     => ("get", Vector(d, k))
    case Rng(a, b)     => ("rng", Vector(a, b))
    case SubArr(a, l, h) => ("sub", Vector(a, l, h))
    case Merge(l, r, b)  => ("merge", Vector(l, r, b))
  }

  /** Rebuild an Expr node from an op string and child expressions. */
  def compose(op: String, cs: Vector[Expr]): Expr =
    if (op.startsWith("num:")) Num(op.drop(4).toDouble)
    else if (op.startsWith("var:")) Vr(op.drop(4).toInt)
    else if (op.startsWith("sym:")) Sym(op.drop(4))
    else if (op.startsWith("bin:")) Bin(op.drop(4), cs(0), cs(1))
    else if (op.startsWith("dict:")) {
      val flags = op.drop(5)
      Dict(cs(0), cs(1), flags(0) == 'u', physOf(flags(1)))
    } else op match {
      case "if"    => IfThen(cs(0), cs(1))
      case "let"   => Let(cs(0), cs(1))
      case "sum"   => Sum(cs(0), cs(1))
      case "get"   => Get(cs(0), cs(1))
      case "rng"   => Rng(cs(0), cs(1))
      case "sub"   => SubArr(cs(0), cs(1), cs(2))
      case "merge" => Merge(cs(0), cs(1), cs(2))
      case other   => throw new IllegalArgumentException(s"unknown op $other")
    }

  /** Binder arity per child position for an op (sum binds 2 in its body,
    * let 1, merge 3) — needed by extraction-time De Bruijn reasoning. */
  def binderArities(op: String, nChildren: Int): Vector[Int] = op match {
    case "let"   => Vector(0, 1)
    case "sum"   => Vector(0, 2)
    case "merge" => Vector(0, 0, 3)
    case _       => Vector.fill(nChildren)(0)
  }
}
