package repro.core

/** Physical representation hint on a dictionary constructor.
  *
  * The paper (Sec. 5.6) gives logical dictionaries cost ∞ and adds rules
  * rewriting them into `@dense` (array-backed) or `@hash` entries; the
  * cost-based extractor then picks one.
  */
sealed trait Phys
object Phys {
  /** Unresolved — a purely logical `{k -> v}`; costed ∞ by Fig. 6. */
  case object PLog extends Phys
  /** `{@dense k -> v}` — entry of a dense (growable) array. */
  case object PDense extends Phys
  /** `{@hash k -> v}` — entry of a hash map. */
  case object PHash extends Phys
}

/** SDQLite core expression (Sec. 3.2), with De Bruijn variables.
  *
  * Binder arities: [[Let]] binds 1 (`%0` = bound value), [[Sum]] binds 2
  * (`%1` = key, `%0` = value), [[Merge]] binds 3 (`%2` = k1, `%1` = k2,
  * `%0` = the common value). All the Table-1 sugar (tuple keys, repeated
  * variables, multi-binding sums/lets) is desugared by [[Sugar]].
  */
sealed trait Expr {
  /** AST size — the tie-breaker cost for the smallest-term extractor. */
  lazy val size: Int = this match {
    case Num(_) | Vr(_) | Sym(_)  => 1
    case Bin(_, a, b)             => 1 + a.size + b.size
    case IfThen(c, t)             => 1 + c.size + t.size
    case Let(b, e)                => 1 + b.size + e.size
    case Sum(c, b)                => 1 + c.size + b.size
    case Dict(k, v, _, _)         => 1 + k.size + v.size
    case Get(d, k)                => 1 + d.size + k.size
    case Rng(a, b)                => 1 + a.size + b.size
    case SubArr(a, l, h)          => 1 + a.size + l.size + h.size
    case Merge(l, r, b)           => 1 + l.size + r.size + b.size
  }
}

/** Numeric literal (reals and integers share one scalar type). */
final case class Num(v: Double) extends Expr
/** De Bruijn variable: `%ix`, where `%0` is the innermost binding. */
final case class Vr(ix: Int) extends Expr
/** A global symbol — a physical array/hash/scalar, or a logical tensor
  * name in a Tensor Program before composition with its TSM. */
final case class Sym(name: String) extends Expr
/** Binary scalar/dictionary op: one of + - * / % idiv == < <= > >= && ||
  * evenbits oddbits (see [[BinOp]]). Comparisons and logicals return 0/1. */
final case class Bin(op: BinOp, a: Expr, b: Expr) extends Expr
/** `if (cond) then thn` — else-branch is the additive zero (Sec. 3.2). */
final case class IfThen(cond: Expr, thn: Expr) extends Expr
/** `let %0 = bound in body`. */
final case class Let(bound: Expr, body: Expr) extends Expr
/** `sum(<%1, %0> in coll) body`. */
final case class Sum(coll: Expr, body: Expr) extends Expr
/** `{key -> value}`, optionally `@unique` (Sec. 5.2), with a physical
  * representation hint (Sec. 5.6). */
final case class Dict(key: Expr, value: Expr, unique: Boolean = false,
                      phys: Phys = Phys.PLog) extends Expr
/** Dictionary lookup `dict(key)`. */
final case class Get(dict: Expr, key: Expr) extends Expr
/** Range dictionary `lo:hi = {lo -> lo, ..., hi-1 -> hi-1}`. */
final case class Rng(lo: Expr, hi: Expr) extends Expr
/** Sub-array `arr(lo:hi) = {i -> arr(i) | lo <= i < hi}` (segments). */
final case class SubArr(arr: Expr, lo: Expr, hi: Expr) extends Expr
/** Physical sorted-merge operator (Sec. 5.6):
  * `merge(<%2,%1,%0> in <left,right>) body` iterates positions k1 of
  * `left` and k2 of `right` whose *values* are equal, binding that common
  * value to `%0`. */
final case class Merge(left: Expr, right: Expr, body: Expr) extends Expr

object Expr {
  import BinOp._

  /** Number of variables bound by each construct, per child position.
    * Children are listed in the same order as the case-class fields. */
  def binders(e: Expr): List[(Expr, Int)] = e match {
    case Num(_) | Vr(_) | Sym(_) => Nil
    case Bin(_, a, b)            => List((a, 0), (b, 0))
    case IfThen(c, t)            => List((c, 0), (t, 0))
    case Let(b, e2)              => List((b, 0), (e2, 1))
    case Sum(c, b)               => List((c, 0), (b, 2))
    case Dict(k, v, _, _)        => List((k, 0), (v, 0))
    case Get(d, k)               => List((d, 0), (k, 0))
    case Rng(a, b)               => List((a, 0), (b, 0))
    case SubArr(a, l, h)         => List((a, 0), (l, 0), (h, 0))
    case Merge(l, r, b)          => List((l, 0), (r, 0), (b, 3))
  }

  private def rebuild(e: Expr, cs: List[Expr]): Expr = (e, cs) match {
    case (e: Num, Nil)            => e
    case (e: Vr, Nil)             => e
    case (e: Sym, Nil)            => e
    case (Bin(op, _, _), List(a, b))      => Bin(op, a, b)
    case (IfThen(_, _), List(c, t))       => IfThen(c, t)
    case (Let(_, _), List(b, e2))         => Let(b, e2)
    case (Sum(_, _), List(c, b))          => Sum(c, b)
    case (Dict(_, _, u, p), List(k, v))   => Dict(k, v, u, p)
    case (Get(_, _), List(d, k))          => Get(d, k)
    case (Rng(_, _), List(a, b))          => Rng(a, b)
    case (SubArr(_, _, _), List(a, l, h)) => SubArr(a, l, h)
    case (Merge(_, _, _), List(l, r, b))  => Merge(l, r, b)
    case _ => throw new IllegalStateException(s"rebuild arity mismatch: $e")
  }

  /** Apply `f` to every *free* De Bruijn index (indices are free relative
    * to the root of `e`); bound indices are untouched. */
  def remapFree(e: Expr, f: Int => Int): Expr = {
    def go(e: Expr, depth: Int): Expr = e match {
      case Vr(i) if i >= depth => Vr(depth + f(i - depth))
      case Vr(_)               => e
      case _ =>
        rebuild(e, binders(e).map { case (c, n) => go(c, depth + n) })
    }
    go(e, 0)
  }

  /** Shift free indices `>= cutoff` by `delta` (the classic ↑ operator). */
  def shift(e: Expr, delta: Int, cutoff: Int = 0): Expr =
    if (delta == 0) e
    else remapFree(e, i => if (i >= cutoff) i + delta else i)

  /** Substitute `repl` for free variable `target` in `e`, adjusting
    * `repl`'s free indices as it moves under binders, and decrementing
    * the indices above `target` (β-reduction style). */
  def subst(e: Expr, target: Int, repl: Expr): Expr = {
    def go(e: Expr, depth: Int): Expr = e match {
      case Vr(i) if i == target + depth => shift(repl, depth)
      case Vr(i) if i > target + depth  => Vr(i - 1)
      case Vr(_)                        => e
      case _ =>
        rebuild(e, binders(e).map { case (c, n) => go(c, depth + n) })
    }
    go(e, 0)
  }

  /** Replace every occurrence of global symbol `name` with `repl`
    * (which must be closed — TSMs are closed expressions). */
  def substSym(e: Expr, name: String, repl: Expr): Expr = e match {
    case Sym(n) if n == name => repl
    case _ => rebuild(e, binders(e).map { case (c, _) => substSym(c, name, repl) })
  }

  /** Free De Bruijn indices of `e`, relative to its root. */
  def freeVars(e: Expr): Set[Int] = {
    def go(e: Expr, depth: Int): Set[Int] = e match {
      case Vr(i) if i >= depth => Set(i - depth)
      case Vr(_)               => Set.empty
      case _ =>
        binders(e).iterator.map { case (c, n) => go(c, depth + n) }
          .foldLeft(Set.empty[Int])(_ ++ _)
    }
    go(e, 0)
  }

  /** Global symbols referenced by `e`. */
  def syms(e: Expr): Set[String] = e match {
    case Sym(n) => Set(n)
    case _ => binders(e).iterator.map { case (c, _) => syms(c) }
        .foldLeft(Set.empty[String])(_ ++ _)
  }

  /** Number of occurrences of free variable `target`. */
  def occurrences(e: Expr, target: Int): Int = {
    def go(e: Expr, depth: Int): Int = e match {
      case Vr(i) => if (i == target + depth) 1 else 0
      case _ => binders(e).map { case (c, n) => go(c, depth + n) }.sum
    }
    go(e, 0)
  }

  /** Is `e` linear in free variable `target`? True when the variable
    * occurs exactly once, and that occurrence is in a "value" position:
    * not a dictionary key, an if-condition, a lookup index, a range
    * bound, a divisor, or an operand of an operator other than `+`, `-`,
    * `*` and `/` — the positions through which the summation
    * homomorphism does not distribute. Used by the unnesting
    * rule (sum over a summed dictionary), which is only sound for
    * bodies linear in the dictionary value. */
  def isLinearIn(e: Expr, target: Int): Boolean = {
    def occ(e: Expr, d: Int): Int = occurrences(e, target + d) // at depth d
    // ok(e, d) = occurrence inside e (at binder depth d) is in linear position
    def ok(e: Expr, d: Int): Boolean = e match {
      case Vr(_) | Num(_) | Sym(_) => true
      case Bin(Add | Sub | Mul, a, b) => ok(a, d) && ok(b, d)
      case Bin(Div, a, b) => ok(a, d) && occ(b, d) == 0
      case Bin(Mod | IDiv | Eq | Lt | Le | Gt | Ge | And | Or | EvenBits | OddBits, a, b) =>
        occ(a, d) == 0 && occ(b, d) == 0
      case IfThen(c, t)     => occ(c, d) == 0 && ok(t, d)
      case Let(b, e2)       => ok(b, d) && ok(e2, d + 1)
      case Sum(c, b)        => ok(c, d) && ok(b, d + 2)
      case Dict(k, v, _, _) => occ(k, d) == 0 && ok(v, d)
      case Get(dd, k)       => ok(dd, d) && occ(k, d) == 0
      case Rng(a, b)        => occ(a, d) == 0 && occ(b, d) == 0
      case SubArr(a, l, h)  => ok(a, d) && occ(l, d) == 0 && occ(h, d) == 0
      case Merge(l, r, b)   => ok(l, d) && ok(r, d) && ok(b, d + 3)
    }
    occurrences(e, target) == 1 && ok(e, 0)
  }

  /** Is `e` *strict* (zero-preserving) in free variable `target`? I.e.
    * does `e` evaluate to the additive zero whenever the variable is
    * bound to zero? Conservative syntactic check. The fusion rules
    * (F1/F2/F3 and unnesting) require the fused body to be strict in the
    * dictionary-value variable, because dictionaries drop zero entries
    * while `let` always binds. */
  def isStrictIn(e: Expr, target: Int): Boolean = {
    // strict(e, idx): does e evaluate to zero whenever Var(idx) is zero?
    def strict(e: Expr, idx: Int): Boolean = e match {
      case Vr(i)            => i == idx
      case Num(_) | Sym(_)  => false
      case Bin(Mul, a, b)   => strict(a, idx) || strict(b, idx)
      case Bin(Add | Sub, a, b) => strict(a, idx) && strict(b, idx)
      case Bin(Div, a, _)   => strict(a, idx)
      case Bin(Mod | IDiv | Eq | Lt | Le | Gt | Ge | And | Or | EvenBits | OddBits, _, _) => false
      case IfThen(_, t)     => strict(t, idx)
      case Let(b, e2)       => strict(e2, idx + 1) ||
                               (strict(b, idx) && strict(e2, 0))
      case Sum(c, b)        => strict(c, idx) || strict(b, idx + 2)
      case Dict(_, v, _, _) => strict(v, idx)
      case Get(dd, _)       => strict(dd, idx)
      case Rng(_, _)        => false
      case SubArr(a, _, _)  => strict(a, idx)
      case Merge(l, r, b)   => strict(l, idx) || strict(r, idx) ||
                               strict(b, idx + 3)
    }
    strict(e, target)
  }

  /** Conservative dictionary-depth inference: Some(0) = provably scalar,
    * Some(n>0) = provably an n-level dictionary, None = unknown (free
    * variables and non-scalar symbols have unknown type). Used to gate
    * rules that are only sound for scalar operands (A3: the module
    * product does not commute past dictionary factors). */
  def dictDepth(e: Expr, symIsScalar: String => Boolean = _ => false): Option[Int] = {
    def go(e: Expr): Option[Int] = e match {
      case Num(_) => Some(0)
      case Vr(_)  => None
      case Sym(n) => if (symIsScalar(n)) Some(0) else None
      case Bin(Mul, a, b) => for (x <- go(a); y <- go(b)) yield x + y
      case Bin(Add | Sub, a, b) =>
        (go(a), go(b)) match {
          case (Some(x), Some(y)) => Some(math.max(x, y))
          case (Some(x), None) => Some(x) // additive mix must agree
          case (None, Some(y)) => Some(y)
          case _ => None
        }
      case Bin(Div | Mod | IDiv | Eq | Lt | Le | Gt | Ge | And | Or | EvenBits | OddBits, _, _) =>
        Some(0) // comparisons, division, bit ops
      case IfThen(_, t) => go(t)
      case Let(_, b)    => go(b)
      case Sum(_, b)    => go(b)
      case Dict(_, v, _, _) => go(v).map(_ + 1)
      case Get(d, _)    => go(d).map(x => math.max(0, x - 1))
      case Rng(_, _)    => Some(1)
      case SubArr(a, _, _) => go(a)
      case Merge(_, _, b)  => go(b)
    }
    go(e)
  }

  /** Pretty-print with invented names (a, b, c, ... per binder depth). */
  def pretty(e: Expr): String = {
    def name(i: Int) = {
      val letters = "kvabcdefghijlmnopqrstuwxyz"
      "" + letters(i % letters.length) + (if (i >= letters.length) i / letters.length else "")
    }
    def go(e: Expr, depth: Int): String = e match {
      case Num(v)  => if (v == v.floor && v.abs < 1e15) v.toLong.toString else v.toString
      case Vr(i)   => if (i < depth) name(depth - 1 - i) else s"%${i - depth}"
      case Sym(n)  => n
      case Bin(op, a, b) => s"(${go(a, depth)} $op ${go(b, depth)})"
      case IfThen(c, t)  => s"if (${go(c, depth)}) then ${go(t, depth)}"
      case Let(b, e2) =>
        s"let ${name(depth)} = ${go(b, depth)} in\n${go(e2, depth + 1)}"
      case Sum(c, b) =>
        s"sum(<${name(depth)},${name(depth + 1)}> in ${go(c, depth)}) ${go(b, depth + 2)}"
      case Dict(k, v, u, p) =>
        val ann = (if (u) "@unique " else "") + (p match {
          case Phys.PDense => "@dense "; case Phys.PHash => "@hash "; case _ => "" })
        s"{$ann${go(k, depth)} -> ${go(v, depth)}}"
      case Get(d, k)      => s"${go(d, depth)}(${go(k, depth)})"
      case Rng(a, b)      => s"(${go(a, depth)}:${go(b, depth)})"
      case SubArr(a, l, h)=> s"${go(a, depth)}(${go(l, depth)}:${go(h, depth)})"
      case Merge(l, r, b) =>
        s"merge(<${name(depth)},${name(depth + 1)},${name(depth + 2)}> in " +
          s"<${go(l, depth)}, ${go(r, depth)}>) ${go(b, depth + 3)}"
    }
    go(e, 0)
  }
}
