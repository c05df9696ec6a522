package repro.exec

import repro.core._

/** Tree-walking execution engine for SDQLite plans (the substrate that
  * replaces the paper's Julia runtime).
  *
  * Each `sum` becomes a loop over its collection's physical
  * representation (dense array, hash, range, segment view), each `let` a
  * binding on the environment stack, and each `{... -> ...}` under a
  * `sum` a direct insertion into a specialized accumulator — so the
  * relative costs the optimizer reasons about (dense vs. hash iteration
  * and lookup, materialization, fusion) are reflected in wall-clock.
  */
final class Interp(symtab: collection.Map[String, Value]) {

  /** Environment: De Bruijn index 0 = top of stack. */
  private var stack = new Array[Value](64)
  private var top = 0

  private def push(v: Value): Unit = {
    if (top == stack.length) stack = java.util.Arrays.copyOf(stack, top * 2)
    stack(top) = v; top += 1
  }
  private def pop(n: Int): Unit = { top -= n }
  private def local(i: Int): Value = stack(top - 1 - i)

  def eval(e: Expr): Value = e match {
    case Num(v) => num(v)
    case Vr(i)  => local(i)
    case Sym(n) => symtab.getOrElse(n,
      throw new NoSuchElementException(s"unbound symbol $n"))
    case Bin(op, a, b) => binop(op, a, b)
    case IfThen(c, t)  => if (Value.truthy(eval(c))) eval(t) else VZero
    case Let(bound, body) =>
      push(eval(bound))
      val r = eval(body)
      pop(1); r
    case Sum(coll, body) => evalSum(coll, body)
    case Dict(k, v, _, _) =>
      val kv = Value.asLong(eval(k))
      val vv = eval(v)
      if (vv == VZero) VZero else VSingle(kv, vv)
    case Get(d, k) =>
      val dv = eval(d)
      dv match {
        case VZero => VZero
        case dd: VDict => dd.get(Value.asLong(eval(k)))
        case other => throw new IllegalArgumentException(s"lookup on non-dict $other")
      }
    case Rng(lo, hi) =>
      VRng(Value.asLong(eval(lo)), Value.asLong(eval(hi)))
    case SubArr(a, lo, hi) =>
      val base = Value.asDict(eval(a))
      new VView(base, Value.asLong(eval(lo)), Value.asLong(eval(hi)))
    case Merge(l, r, body) => evalMerge(l, r, body)
  }

  /** `+`, `*` and `-` also work on dictionaries (`a - b` is
    * `a + (-1) * b`); `&&` and `||` short-circuit. */
  private def binop(op: BinOp, ae: Expr, be: Expr): Value = op match {
    case BinOp.And => if (Value.truthy(eval(ae)) && Value.truthy(eval(be))) VNum(1) else VZero
    case BinOp.Or => if (Value.truthy(eval(ae)) || Value.truthy(eval(be))) VNum(1) else VZero
    case _ =>
      val a = eval(ae); val b = eval(be)
      op match {
        case BinOp.Add => Value.add(a, b)
        case BinOp.Mul => Value.mul(a, b)
        case BinOp.Sub => Value.add(a, Value.mul(MinusOne, b))
        case _ => num(op(Value.asNum(a), Value.asNum(b)))
      }
  }

  private def num(d: Double): Value = if (d == 0) VZero else VNum(d)
  private val MinusOne = VNum(-1)

  /** `sum(<k,v> in coll) body` — pushes key then value, accumulates.
    * Fast paths avoid allocating a singleton dictionary per iteration
    * when the body is (a conditional around) a dictionary constructor. */
  private def evalSum(collE: Expr, body: Expr): Value = {
    val coll = eval(collE) match {
      case VZero     => Value.EmptyDict
      case d: VDict  => d
      case other     => throw new IllegalArgumentException(s"sum over non-dict $other")
    }
    val acc = new Acc
    body match {
      case Dict(kE, vE, _, phys) =>
        val dense = phys == Phys.PDense
        coll.foreachEntry { (k, v) =>
          push(VNum(k.toDouble)); push(v)
          acc.plusEntry(Value.asLong(eval(kE)), eval(vE), dense)
          pop(2)
        }
      case IfThen(cE, Dict(kE, vE, _, phys)) =>
        val dense = phys == Phys.PDense
        coll.foreachEntry { (k, v) =>
          push(VNum(k.toDouble)); push(v)
          if (Value.truthy(eval(cE)))
            acc.plusEntry(Value.asLong(eval(kE)), eval(vE), dense)
          pop(2)
        }
      case _ =>
        coll.foreachEntry { (k, v) =>
          push(VNum(k.toDouble)); push(v)
          acc.plus(eval(body))
          pop(2)
        }
    }
    acc.result
  }

  /** `merge(<k1,k2,v> in <l,r>) body` — two-pointer intersection on the
    * *values* of two numeric dictionaries iterated in ascending value
    * order (idx arrays and ranges are sorted by construction). */
  private def evalMerge(lE: Expr, rE: Expr, body: Expr): Value = {
    val l = pairs(Value.asDict(eval(lE)))
    val r = pairs(Value.asDict(eval(rE)))
    val acc = new Acc
    var i = 0; var j = 0
    while (i < l.length && j < r.length) {
      val (ki, vi) = l(i); val (kj, vj) = r(j)
      if (vi == vj) {
        push(VNum(ki.toDouble)); push(VNum(kj.toDouble)); push(VNum(vi))
        acc.plus(eval(body))
        pop(3)
        i += 1; j += 1
      } else if (vi < vj) i += 1
      else j += 1
    }
    acc.result
  }

  private def pairs(d: VDict): Array[(Long, Double)] = {
    val buf = Array.newBuilder[(Long, Double)]
    d.foreachEntry { (k, v) => if (v != VZero) buf += ((k, Value.asNum(v))) }
    buf.result()
  }
}

object Interp {
  /** Evaluate a closed expression over a symbol table. */
  def run(e: Expr, symtab: collection.Map[String, Value]): Value =
    new Interp(symtab).eval(e)

  /** Wall-clock of one evaluation, in milliseconds. */
  def timeMs(e: Expr, symtab: collection.Map[String, Value]): (Value, Double) = {
    val t0 = System.nanoTime()
    val v = run(e, symtab)
    ((v, (System.nanoTime() - t0) / 1e6))
  }
}
