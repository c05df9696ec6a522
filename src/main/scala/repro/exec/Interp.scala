package repro.exec

import repro.core._

/** Execution engine for SDQLite plans (the substrate that replaces the
  * paper's generated Julia code).
  *
  * `run` compiles a plan into a tree of closures over one frame, then runs
  * it (closure compilation: Feeley & Lapalme, *Using closures for code
  * generation*, 1987). Compilation resolves every symbol once and infers
  * a static [[Kind]] for each subterm from the runtime classes of the
  * symbol table's values. Scalar subterms compile to `Double`-returning
  * code and keep their binders in a `Double` slot of the frame, so inner
  * loops neither box numbers nor look up names; every other subterm
  * compiles to `Value`-returning code with the semantics of [[Value]].
  * A scalar 0.0 stands for [[VZero]].
  *
  * Each `sum` is a loop over its collection's physical representation
  * (dense array, hash, range, segment view). A scalar `sum` adds up into
  * a `double`; a dictionary `sum` feeds one [[Acc]], into which a body
  * made of `let`, `if`, nested `sum` and `{... -> ...}` inserts directly.
  * So the relative costs the optimizer reasons about (dense vs. hash
  * iteration and lookup, materialization, fusion) are what run.
  */
object Interp {

  /** Evaluate a closed expression over a symbol table. */
  def run(e: Expr, symtab: collection.Map[String, Value]): Value =
    new Compiler(symtab).compile(e)()
}

/** What a subterm evaluates to, as far as compilation can tell. */
private[exec] sealed trait Kind
private[exec] object Kind {
  /** [[VZero]] or a [[VNum]]. */
  case object Scalar extends Kind
  /** [[VZero]] or a dictionary whose values are of kind `value`. */
  final case class DictOf(value: Kind) extends Kind
  case object Unknown extends Kind

  /** The kind of a symbol's value. */
  def of(v: Value): Kind = v match {
    case VZero | _: VNum => Scalar
    case _: VDenseN | _: VDenseL | _: VHashN | _: VRng => DictOf(Scalar)
    case VSingle(_, x) => DictOf(of(x))
    case _ => DictOf(Unknown)
  }

  /** `Value.add`: dictionaries merge, scalars add; a mix is unknown. */
  def add(a: Kind, b: Kind): Kind = (a, b) match {
    case (Scalar, Scalar) => Scalar
    case (DictOf(x), DictOf(y)) => DictOf(if (x == y) x else Unknown)
    case _ => Unknown
  }

  /** `Value.mul`: a dictionary factor maps its values. */
  def mul(a: Kind, b: Kind): Kind = (a, b) match {
    case (Scalar, Scalar) => Scalar
    case (Scalar, DictOf(y)) => DictOf(mul(Scalar, y))
    case (DictOf(x), y) => DictOf(mul(x, y))
    case _ => Unknown
  }
}

/** Compiled code of a scalar-kinded subterm. */
private[exec] trait D { def apply(): Double }
/** Compiled code of any other subterm. */
private[exec] trait V { def apply(): Value }
/** Compiled truth test (`Value.truthy`). */
private[exec] trait B { def apply(): Boolean }

/** A De Bruijn variable: a slot of the frame's `Double` array if
  * scalar, else of its `Value` array. */
private final case class Binder(kind: Kind, slot: Int)

/** Compiles one plan against one symbol table. The frame (`dbl` and
  * `ref`) is allocated once compilation knows its size; a binder's slot
  * is its nesting depth among the binders of its array. */
private final class Compiler(symtab: collection.Map[String, Value]) {
  import Kind._

  private var dbl: Array[Double] = _
  private var ref: Array[Value] = _
  private var nDbl, nRef, maxDbl, maxRef = 0

  private type Env = List[Binder]

  def compile(e: Expr): V = {
    val code = value(e, Nil)
    dbl = new Array[Double](maxDbl)
    ref = new Array[Value](maxRef)
    code
  }

  private def bind[T](kind: Kind)(f: Binder => T): T =
    if (kind == Scalar) {
      val b = Binder(kind, nDbl); nDbl += 1; maxDbl = math.max(maxDbl, nDbl)
      try f(b) finally nDbl -= 1
    } else {
      val b = Binder(kind, nRef); nRef += 1; maxRef = math.max(maxRef, nRef)
      try f(b) finally nRef -= 1
    }

  // ---- kinds -------------------------------------------------------------

  private def kind(e: Expr, env: Env): Kind = e match {
    case Num(_) => Scalar
    case Vr(i) => env(i).kind
    case Sym(n) => symtab.get(n).fold[Kind](Unknown)(Kind.of)
    case Bin(BinOp.Add | BinOp.Sub, a, b) => Kind.add(kind(a, env), kind(b, env))
    case Bin(BinOp.Mul, a, b) => Kind.mul(kind(a, env), kind(b, env))
    case Bin(_, _, _) => Scalar
    case IfThen(_, t) => kind(t, env)
    case Let(b, body) => kind(body, Binder(kind(b, env), -1) :: env)
    case Sum(c, body) =>
      kind(body, Binder(elemKind(kind(c, env)), -1) :: Binder(Scalar, -1) :: env)
    case Dict(_, v, _, _) => DictOf(kind(v, env))
    case Get(d, _) => elemKind(kind(d, env))
    case Rng(_, _) => DictOf(Scalar)
    case SubArr(a, _, _) => kind(a, env) match { case d: DictOf => d; case _ => Unknown }
    case Merge(_, _, body) => kind(body, List.fill(3)(Binder(Scalar, -1)) ++ env)
  }

  private def elemKind(k: Kind): Kind = k match {
    case DictOf(v) => v
    case _ => Unknown
  }

  // ---- scalar code -------------------------------------------------------

  /** `e` as a number: its scalar code, or its value through `Value.asNum`. */
  private def num(e: Expr, env: Env): D =
    if (kind(e, env) != Scalar) { val v = value(e, env); () => Value.asNum(v()) }
    else e match {
      case Num(x) => () => x
      case Vr(i) => val s = env(i).slot; () => dbl(s)
      case Sym(n) => val x = Value.asNum(symtab(n)); () => x
      case Bin(op, a, b) => numBin(op, a, b, env)
      case IfThen(c, t) => val cc = cond(c, env); val tt = num(t, env); () => if (cc()) tt() else 0.0
      case Let(b, body) => letOf(b, env) { (store, env1) => val r = num(body, env1); () => { store(); r() } }
      case Sum(c, body) => loop(c, env) { (src, env1) => val bb = num(body, env1); () => src.sum(bb) }
      case Merge(l, r, body) => merge(l, r, env) { (src, env1) => val bb = num(body, env1); () => src.sum(bb) }
      case Get(d, k) => numGet(d, k, env)
      case Dict(_, _, _, _) | Rng(_, _) | SubArr(_, _, _) =>
        throw new IllegalStateException(s"not scalar: $e")
    }

  private def numBin(op: BinOp, a: Expr, b: Expr, env: Env): D = op match {
    case BinOp.And | BinOp.Or | BinOp.Eq | BinOp.Lt | BinOp.Le | BinOp.Gt | BinOp.Ge =>
      val c = cond(Bin(op, a, b), env); () => if (c()) 1.0 else 0.0
    case _ if kind(a, env) != Scalar || kind(b, env) != Scalar =>
      // both operands are evaluated before either is converted, as boxed
      val x = value(a, env); val y = value(b, env)
      () => { val u = x(); val w = y(); op(Value.asNum(u), Value.asNum(w)) }
    case _ =>
      val x = num(a, env); val y = num(b, env)
      op match {
        case BinOp.Add => () => x() + y()
        case BinOp.Sub => () => x() - y()
        case BinOp.Mul => () => times(x(), y())
        // + 0.0 turns a -0.0 divisor into the 0 that VZero is
        case BinOp.Div => () => x() / (y() + 0.0)
        case _ => () => op(x(), y())
      }
  }

  /** A product with a zero factor is zero, as `Value.mul` has it, also
    * when the other factor is infinite or NaN. */
  private def times(x: Double, y: Double): Double = {
    val p = x * y
    if (p != p && (x == 0 || y == 0)) 0.0 else p
  }

  private def numGet(d: Expr, k: Expr, env: Env): D = {
    val dd = value(d, env); val kk = num(k, env)
    () => dd() match {
      case VZero => 0.0
      case n: VDenseN =>
        val i = BinOp.whole(kk()); if (i >= 0 && i < n.a.length) n.a(i.toInt) else 0.0
      case n: VDenseL =>
        val i = BinOp.whole(kk()); if (i >= 0 && i < n.a.length) n.a(i.toInt).toDouble else 0.0
      case x: VDict => Value.asNum(x.get(BinOp.whole(kk())))
      case other => throw new IllegalArgumentException(s"lookup on non-dict $other")
    }
  }

  /** `Value.truthy(e)`. */
  private def cond(e: Expr, env: Env): B = e match {
    case Bin(BinOp.And, a, b) => val x = cond(a, env); val y = cond(b, env); () => x() && y()
    case Bin(BinOp.Or, a, b) => val x = cond(a, env); val y = cond(b, env); () => x() || y()
    case Bin(op @ (BinOp.Eq | BinOp.Lt | BinOp.Le | BinOp.Gt | BinOp.Ge), a, b) =>
      if (kind(a, env) != Scalar || kind(b, env) != Scalar) {
        val x = value(a, env); val y = value(b, env)
        () => { val u = x(); val w = y(); op(Value.asNum(u), Value.asNum(w)) != 0 }
      } else {
        val x = num(a, env); val y = num(b, env)
        op match {
          case BinOp.Eq => () => x() == y()
          case BinOp.Lt => () => x() < y()
          case BinOp.Le => () => x() <= y()
          case BinOp.Gt => () => x() > y()
          case _ => () => x() >= y()
        }
      }
    case _ if kind(e, env) == Scalar => val x = num(e, env); () => x() != 0
    case _ => val v = value(e, env); () => Value.truthy(v())
  }

  // ---- boxed code --------------------------------------------------------

  private def value(e: Expr, env: Env): V =
    if (kind(e, env) == Scalar) e match {
      case Sym(n) => val v = symtab(n); () => v
      case _ => val x = num(e, env); () => box(x())
    }
    else e match {
      case Vr(i) => val s = env(i).slot; () => ref(s)
      case Sym(n) => symtab.get(n) match {
        case Some(v) => () => v
        case None => () => throw new NoSuchElementException(s"unbound symbol $n")
      }
      case Bin(op, a, b) =>
        val x = value(a, env); val y = value(b, env)
        op match {
          case BinOp.Add => () => Value.add(x(), y())
          case BinOp.Sub => () => { val u = x(); Value.add(u, Value.mul(MinusOne, y())) }
          case BinOp.Mul => () => Value.mul(x(), y())
          case _ => throw new IllegalStateException(s"not a dictionary operator: $op")
        }
      case IfThen(c, t) => val cc = cond(c, env); val tt = value(t, env); () => if (cc()) tt() else VZero
      case Let(b, body) => letOf(b, env) { (store, env1) => val r = value(body, env1); () => { store(); r() } }
      case Sum(c, body) => loop(c, env)(dictSum(body, _, _))
      case Merge(l, r, body) => merge(l, r, env)(dictSum(body, _, _))
      case Dict(k, v, _, _) =>
        val kk = num(k, env)
        if (kind(v, env) == Scalar) {
          val vv = num(v, env)
          () => { val key = BinOp.whole(kk()); val d = vv(); if (d == 0) VZero else VSingle(key, VNum(d)) }
        } else {
          val vv = value(v, env)
          () => { val key = BinOp.whole(kk()); val x = vv(); if (x == VZero) VZero else VSingle(key, x) }
        }
      case Get(d, k) =>
        val dd = value(d, env); val kk = num(k, env)
        () => dd() match {
          case VZero => VZero
          case x: VDict => x.get(BinOp.whole(kk()))
          case other => throw new IllegalArgumentException(s"lookup on non-dict $other")
        }
      case Rng(lo, hi) =>
        val l = num(lo, env); val h = num(hi, env)
        () => { val a = BinOp.whole(l()); VRng(a, BinOp.whole(h())) }
      case SubArr(a, lo, hi) =>
        val aa = value(a, env); val l = num(lo, env); val h = num(hi, env)
        () => {
          val base = Value.asDict(aa()); val x = BinOp.whole(l())
          new VView(base, x, BinOp.whole(h()))
        }
      case Num(_) => throw new IllegalStateException(s"scalar: $e")
    }

  private def box(d: Double): Value = if (d == 0) VZero else VNum(d)
  private val MinusOne = VNum(-1)

  /** A dictionary-valued (or unknown) `sum`/`merge` body: the node's one
    * [[Acc]], cleared for each run of the loop, which the body feeds
    * directly where it can. */
  private def dictSum(body: Expr, src: Src, env: Env): V = {
    val acc = new Acc
    val b: D =
      if (kind(body, env).isInstanceOf[DictOf]) sink(body, env, acc)
      else { val v = value(body, env); () => { acc.plus(v()); 0.0 } }
    () => { acc.clear(); src.sum(b); acc.result }
  }

  /** Code that adds dictionary-kinded `e` into `acc` (returning 0.0,
    * which the loop adds up and drops). A `let`, `if`, `sum` or `merge`
    * passes the accumulator on, so nested loops insert into it instead of
    * building a dictionary per outer entry. */
  private def sink(e: Expr, env: Env, acc: Acc): D = e match {
    case Dict(k, v, _, phys) =>
      val kk = num(k, env); val dense = phys == Phys.PDense
      if (kind(v, env) == Scalar) {
        val vv = num(v, env)
        () => { val key = BinOp.whole(kk()); acc.plusEntryN(key, vv(), dense); 0.0 }
      } else {
        val vv = value(v, env)
        () => { val key = BinOp.whole(kk()); acc.plusEntry(key, vv(), dense); 0.0 }
      }
    case IfThen(c, t) => val cc = cond(c, env); val tt = sink(t, env, acc); () => if (cc()) tt() else 0.0
    case Let(b, body) => letOf(b, env) { (store, env1) => val r = sink(body, env1, acc); () => { store(); r() } }
    case Sum(c, body) => loop(c, env) { (src, env1) => val bb = sink(body, env1, acc); () => src.sum(bb) }
    case Merge(l, r, body) => merge(l, r, env) { (src, env1) => val bb = sink(body, env1, acc); () => src.sum(bb) }
    case _ => val v = value(e, env); () => { acc.plus(v()); 0.0 }
  }

  // ---- binders -----------------------------------------------------------

  /** `let`: code that evaluates the bound term into its slot. */
  private def letOf[T](b: Expr, env: Env)(f: (() => Unit, Env) => T): T = {
    val k = kind(b, env)
    if (k == Scalar) {
      val bb = num(b, env)
      bind(k) { x => val s = x.slot; f(() => dbl(s) = bb(), x :: env) }
    } else {
      val bb = value(b, env)
      bind(k) { x => val s = x.slot; f(() => ref(s) = bb(), x :: env) }
    }
  }

  /** `sum(<k,v> in c)`: the loop over `c`, and the body's environment. */
  private def loop[T](c: Expr, env: Env)(f: (Src, Env) => T): T = {
    val elem = elemKind(kind(c, env))
    c match {
      case Rng(lo, hi) =>
        val l = num(lo, env); val h = num(hi, env)
        bind(Scalar)(k => bind(Scalar)(v => f(new RngSrc(l, h, k.slot, v.slot), v :: k :: env)))
      case SubArr(Sym(n), lo, hi) if symtab.get(n).exists(isDense) =>
        val l = num(lo, env); val h = num(hi, env)
        bind(Scalar)(k => bind(Scalar)(v => f(new SegSrc(symtab(n), l, h, k.slot, v.slot), v :: k :: env)))
      case _ =>
        val coll: V = c match {
          // a dictionary `sum` is iterated in its accumulator, not copied out
          case Sum(_, _) | Merge(_, _, _) if kind(c, env).isInstanceOf[DictOf] =>
            val acc = new Acc; val fill = sink(c, env, acc)
            () => { acc.clear(); fill(); acc.lend }
          case _ => value(c, env)
        }
        bind(Scalar)(k => bind(elem)(v => f(new DictSrc(coll, k.slot, v.slot, v.kind == Scalar), v :: k :: env)))
    }
  }

  /** `merge(<k1,k2,v> in <l,r>)`: three scalar binders. */
  private def merge[T](l: Expr, r: Expr, env: Env)(f: (Src, Env) => T): T = {
    val ll = value(l, env); val rr = value(r, env)
    bind(Scalar)(k1 => bind(Scalar)(k2 => bind(Scalar)(v =>
      f(new MergeSrc(ll, rr, k1.slot, k2.slot, v.slot), v :: k2 :: k1 :: env))))
  }

  // ---- loops -------------------------------------------------------------

  /** The entries of a collection: `sum(body)` writes each entry's key and
    * value into the frame, runs `body` and adds up its results. */
  private abstract class Src { def sum(body: D): Double }

  private final class RngSrc(lo: D, hi: D, k: Int, v: Int) extends Src {
    def sum(body: D): Double = {
      val l = BinOp.whole(lo()); range(l, BinOp.whole(hi()), k, v, body)
    }
  }

  /** `a(lo:hi)` over a dense numeric symbol. */
  private final class SegSrc(a: Value, lo: D, hi: D, k: Int, v: Int) extends Src {
    def sum(body: D): Double = {
      val l = BinOp.whole(lo()); segment(a, l, BinOp.whole(hi()), k, v, body)
    }
  }

  private def isDense(v: Value): Boolean = v.isInstanceOf[VDenseN] || v.isInstanceOf[VDenseL]

  private def range(lo: Long, hi: Long, k: Int, v: Int, body: D): Double = {
    val f = dbl
    var s = 0.0; var i = lo
    while (i < hi) { f(k) = i.toDouble; f(v) = i.toDouble; s += body(); i += 1 }
    s
  }

  /** Positions `lo` to `hi` of a dense numeric array, clipped to it, as
    * `VView` iterates them. */
  private def segment(a: Value, lo: Long, hi: Long, k: Int, v: Int, body: D): Double = a match {
    case n: VDenseN => denseN(n.a, lo, hi, k, v, body)
    case n: VDenseL => denseL(n.a, lo, hi, k, v, body)
    case _ => throw new IllegalStateException(s"not dense: $a")
  }

  private def denseN(a: Array[Double], lo: Long, hi: Long, k: Int, v: Int, body: D): Double = {
    val f = dbl
    var s = 0.0; var i = math.max(lo, 0L).toInt; val end = math.min(hi, a.length.toLong).toInt
    while (i < end) { f(k) = i.toDouble; f(v) = a(i); s += body(); i += 1 }
    s
  }

  private def denseL(a: Array[Long], lo: Long, hi: Long, k: Int, v: Int, body: D): Double = {
    val f = dbl
    var s = 0.0; var i = math.max(lo, 0L).toInt; val end = math.min(hi, a.length.toLong).toInt
    while (i < end) { f(k) = i.toDouble; f(v) = a(i).toDouble; s += body(); i += 1 }
    s
  }

  /** Any dictionary value, dispatched on its class when the loop starts. */
  private final class DictSrc(coll: V, k: Int, v: Int, numeric: Boolean) extends Src {
    def sum(body: D): Double = entries(coll(), k, v, numeric, body)
  }

  /** With a scalar value binder (`numeric`), dense numeric arrays, ranges
    * and their views run as primitive loops; other dictionaries go entry
    * by entry. */
  private def entries(coll: Value, k: Int, v: Int, numeric: Boolean, body: D): Double = coll match {
    case VZero => 0.0
    case d: VDict if numeric && isDense(d) => segment(d, 0, Long.MaxValue, k, v, body)
    case w: VView if numeric && isDense(w.base) => segment(w.base, w.lo, w.hi, k, v, body)
    case VRng(lo, hi) if numeric => range(lo, hi, k, v, body)
    case d: VDict =>
      val f = dbl; val r = ref
      var s = 0.0
      d.foreachEntry { (key, x) =>
        f(k) = key.toDouble
        if (numeric) f(v) = Value.asNum(x) else r(v) = x
        s += body()
      }
      s
    case other => throw new IllegalArgumentException(s"sum over non-dict $other")
  }

  /** Two-pointer intersection on the values of two numeric dictionaries
    * iterated in ascending value order (idx arrays and ranges are sorted
    * by construction); binds the positions and the common value. */
  private final class MergeSrc(l: V, r: V, k1: Int, k2: Int, v: Int) extends Src {
    def sum(body: D): Double = {
      val lp = pairs(Value.asDict(l())); val rp = pairs(Value.asDict(r()))
      val f = dbl
      var s = 0.0; var i = 0; var j = 0
      while (i < lp.length && j < rp.length) {
        val (ki, vi) = lp(i); val (kj, vj) = rp(j)
        if (vi == vj) {
          f(k1) = ki.toDouble; f(k2) = kj.toDouble; f(v) = vi
          s += body()
          i += 1; j += 1
        } else if (vi < vj) i += 1
        else j += 1
      }
      s
    }
  }

  private def pairs(d: VDict): Array[(Long, Double)] = {
    val buf = Array.newBuilder[(Long, Double)]
    d.foreachEntry { (k, v) => if (v != VZero) buf += ((k, Value.asNum(v))) }
    buf.result()
  }
}
