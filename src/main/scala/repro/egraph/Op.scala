package repro.egraph

import repro.core
import repro.core.{Expr, Phys}

/** The operator of an e-node: one case per SDQLite construct, with the
  * leaf payloads (number, De Bruijn index, symbol name, binary operator)
  * and the dictionary flags as typed fields, as in egg's language enums
  * (Willsey et al., POPL 2021). */
sealed abstract class Op(val arity: Int) {
  /** Variables the node binds in child `i`: a sum binds 2 in its body,
    * a let 1 and a merge 3. */
  def binds(i: Int): Int = 0
  /** Rebuild the [[Expr]] node from its children. */
  def compose(cs: Vector[Expr]): Expr
}

object Op {
  /** A numeric literal. Literals are equal when their bit patterns are,
    * so `0.0` and `-0.0` stay apart and every `NaN` is one literal. */
  final case class Num(v: Double) extends Op(0) {
    override def equals(o: Any): Boolean = o match {
      case Num(w) => java.lang.Double.doubleToLongBits(v) == java.lang.Double.doubleToLongBits(w)
      case _ => false
    }
    override def hashCode: Int = java.lang.Double.hashCode(v)
    def compose(cs: Vector[Expr]): Expr = core.Num(v)
  }
  final case class Var(ix: Int) extends Op(0) {
    def compose(cs: Vector[Expr]): Expr = core.Vr(ix)
  }
  final case class Sym(name: String) extends Op(0) {
    def compose(cs: Vector[Expr]): Expr = core.Sym(name)
  }
  final case class Bin(op: String) extends Op(2) {
    def compose(cs: Vector[Expr]): Expr = core.Bin(op, cs(0), cs(1))
  }
  final case class Dict(unique: Boolean, phys: Phys) extends Op(2) {
    def compose(cs: Vector[Expr]): Expr = core.Dict(cs(0), cs(1), unique, phys)
  }
  case object If extends Op(2) {
    def compose(cs: Vector[Expr]): Expr = core.IfThen(cs(0), cs(1))
  }
  case object Let extends Op(2) {
    override def binds(i: Int): Int = if (i == 1) 1 else 0
    def compose(cs: Vector[Expr]): Expr = core.Let(cs(0), cs(1))
  }
  case object Sum extends Op(2) {
    override def binds(i: Int): Int = if (i == 1) 2 else 0
    def compose(cs: Vector[Expr]): Expr = core.Sum(cs(0), cs(1))
  }
  case object Get extends Op(2) {
    def compose(cs: Vector[Expr]): Expr = core.Get(cs(0), cs(1))
  }
  case object Rng extends Op(2) {
    def compose(cs: Vector[Expr]): Expr = core.Rng(cs(0), cs(1))
  }
  case object Sub extends Op(3) {
    def compose(cs: Vector[Expr]): Expr = core.SubArr(cs(0), cs(1), cs(2))
  }
  case object Merge extends Op(3) {
    override def binds(i: Int): Int = if (i == 2) 3 else 0
    def compose(cs: Vector[Expr]): Expr = core.Merge(cs(0), cs(1), cs(2))
  }

  /** Split an [[Expr]] node into its operator and children. */
  def decompose(e: Expr): (Op, Vector[Expr]) = e match {
    case core.Num(v)             => (Num(v), Vector.empty)
    case core.Vr(i)              => (Var(i), Vector.empty)
    case core.Sym(n)             => (Sym(n), Vector.empty)
    case core.Bin(op, a, b)      => (Bin(op), Vector(a, b))
    case core.IfThen(c, t)       => (If, Vector(c, t))
    case core.Let(b, e2)         => (Let, Vector(b, e2))
    case core.Sum(c, b)          => (Sum, Vector(c, b))
    case core.Dict(k, v, u, p)   => (Dict(u, p), Vector(k, v))
    case core.Get(d, k)          => (Get, Vector(d, k))
    case core.Rng(a, b)          => (Rng, Vector(a, b))
    case core.SubArr(a, l, h)    => (Sub, Vector(a, l, h))
    case core.Merge(l, r, b)     => (Merge, Vector(l, r, b))
  }
}
