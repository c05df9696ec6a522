package repro.exec

import repro.core.BinOp
import scala.collection.mutable.LongMap

/** Runtime value model for the execution engine (replaces the paper's
  * Julia runtime).
  *
  * Dictionaries have several physical representations so that the cost
  * model's distinctions are real at runtime: dense arrays iterate every
  * slot (including zeros) with O(1) lookup; hash maps iterate only
  * non-zeros but pay hashing on lookup; ranges and sub-array views are
  * lazy (they are how CSR/CSF segments are iterated without copying).
  *
  * [[VZero]] is the polymorphic additive zero: it behaves as the scalar
  * 0 and as the empty dictionary, matching the paper's convention that a
  * dictionary of zeros *is* the empty dictionary.
  */
sealed trait Value

case object VZero extends Value

final case class VNum(d: Double) extends Value

sealed trait VDict extends Value {
  def get(k: Long): Value
  /** Iterate entries in key-iteration order. Dense representations
    * visit every slot incl. zeros; sparse ones only non-zeros. */
  def foreachEntry(f: (Long, Value) => Unit): Unit
  /** Number of entries visited by iteration (dense counts all slots). */
  def iterSize: Long
}

/** Dense numeric vector (also the physical `ARRAY` of the TSM layer). */
final class VDenseN(val a: Array[Double]) extends VDict {
  def get(k: Long): Value =
    if (k >= 0 && k < a.length) { val d = a(k.toInt); if (d == 0) VZero else VNum(d) }
    else VZero
  def foreachEntry(f: (Long, Value) => Unit): Unit = {
    var i = 0
    while (i < a.length) { f(i.toLong, if (a(i) == 0) VZero else VNum(a(i))); i += 1 }
  }
  def iterSize: Long = a.length.toLong
  override def toString = s"VDenseN(${a.take(8).mkString(",")}${if (a.length > 8) ",…" else ""})"
}

/** Dense integer array (`int ARRAY` — pos/idx arrays of CSR/CSF). */
final class VDenseL(val a: Array[Long]) extends VDict {
  def get(k: Long): Value =
    if (k >= 0 && k < a.length) VNum(a(k.toInt).toDouble) else VZero
  def foreachEntry(f: (Long, Value) => Unit): Unit = {
    var i = 0
    while (i < a.length) { f(i.toLong, VNum(a(i).toDouble)); i += 1 }
  }
  def iterSize: Long = a.length.toLong
}

/** Dense vector of nested values (a materialized `@dense` dictionary). */
final class VDenseV(val a: Array[Value]) extends VDict {
  def get(k: Long): Value =
    if (k >= 0 && k < a.length) { val v = a(k.toInt); if (v == null) VZero else v }
    else VZero
  def foreachEntry(f: (Long, Value) => Unit): Unit = {
    var i = 0
    while (i < a.length) { val v = a(i); f(i.toLong, if (v == null) VZero else v); i += 1 }
  }
  def iterSize: Long = a.length.toLong
}

/** Hash map with numeric values (`@hash`, HASHMAP, DOK). */
final class VHashN(val m: LongMap[Double]) extends VDict {
  def get(k: Long): Value = {
    val d = m.getOrElse(k, 0.0); if (d == 0) VZero else VNum(d)
  }
  def foreachEntry(f: (Long, Value) => Unit): Unit =
    m.foreachEntry((k, d) => f(k, VNum(d)))
  def iterSize: Long = m.size.toLong
}

/** Hash map with nested values (tries are nested [[VHashN]]/[[VHashV]]). */
final class VHashV(val m: LongMap[Value]) extends VDict {
  def get(k: Long): Value = m.getOrElse(k, VZero)
  def foreachEntry(f: (Long, Value) => Unit): Unit = m.foreachEntry(f)
  def iterSize: Long = m.size.toLong
}

/** Singleton dictionary `{k -> v}` evaluated outside a summation. */
final case class VSingle(k: Long, v: Value) extends VDict {
  def get(key: Long): Value = if (key == k) v else VZero
  def foreachEntry(f: (Long, Value) => Unit): Unit = f(k, v)
  def iterSize: Long = 1L
}

/** Range dictionary `lo:hi = {i -> i}`. */
final case class VRng(lo: Long, hi: Long) extends VDict {
  def get(k: Long): Value = if (k >= lo && k < hi) VNum(k.toDouble) else VZero
  def foreachEntry(f: (Long, Value) => Unit): Unit = {
    var i = lo
    while (i < hi) { f(i, VNum(i.toDouble)); i += 1 }
  }
  def iterSize: Long = math.max(0L, hi - lo)
}

/** Sub-array view `base(lo:hi)` — how CSR/CSF segments are iterated. */
final class VView(val base: VDict, val lo: Long, val hi: Long) extends VDict {
  def get(k: Long): Value = if (k >= lo && k < hi) base.get(k) else VZero
  def foreachEntry(f: (Long, Value) => Unit): Unit = {
    // Fast paths over the backing arrays; generic fallback via get.
    base match {
      case b: VDenseL =>
        var i = math.max(lo, 0L); val end = math.min(hi, b.a.length.toLong)
        while (i < end) { f(i, VNum(b.a(i.toInt).toDouble)); i += 1 }
      case b: VDenseN =>
        var i = math.max(lo, 0L); val end = math.min(hi, b.a.length.toLong)
        while (i < end) { f(i, if (b.a(i.toInt) == 0) VZero else VNum(b.a(i.toInt))); i += 1 }
      case _ =>
        var i = lo
        while (i < hi) { f(i, base.get(i)); i += 1 }
    }
  }
  def iterSize: Long = math.max(0L, hi - lo)
}

object Value {

  def truthy(v: Value): Boolean = v match {
    case VNum(d) => d != 0.0
    case VZero   => false
    case _       => true
  }

  def asNum(v: Value): Double = v match {
    case VNum(d) => d
    case VZero   => 0.0
    case other   => throw new IllegalArgumentException(s"expected scalar, got $other")
  }

  def asLong(v: Value): Long = BinOp.whole(asNum(v))

  def asDict(v: Value): VDict = v match {
    case d: VDict => d
    case VZero    => EmptyDict
    case other    => throw new IllegalArgumentException(s"expected dictionary, got $other")
  }

  object EmptyDict extends VDict {
    def get(k: Long): Value = VZero
    def foreachEntry(f: (Long, Value) => Unit): Unit = ()
    def iterSize: Long = 0L
  }

  /** Pointwise addition (dictionaries form a semiring, Sec. 2). */
  def add(a: Value, b: Value): Value = (a, b) match {
    case (VZero, x) => x
    case (x, VZero) => x
    case (VNum(x), VNum(y)) => val s = x + y; if (s == 0) VZero else VNum(s)
    case (x: VDict, y: VDict) =>
      val acc = new Acc
      acc.plus(x); acc.plus(y); acc.result
    case _ => throw new IllegalArgumentException(s"cannot add $a and $b")
  }

  /** SDQL multiplication: the semiring-module structure of dictionaries.
    * `scalar * d` scales values; `d * x` (x scalar *or* dictionary) maps
    * values to `v * x` — so `{k -> v} * e == {k -> v * e}` (rule A2) and
    * `e * {k -> v} == {k -> e * v}` (rule A3) hold unconditionally.
    * There is no pointwise-intersection product; joins are written as
    * sums with equality conditions. */
  def mul(a: Value, b: Value): Value = (a, b) match {
    case (VZero, _) | (_, VZero) => VZero
    case (VNum(x), VNum(y)) => val p = x * y; if (p == 0) VZero else VNum(p)
    case (VNum(x), d: VDict) => mapValues(d, v => mul(VNum(x), v))
    case (d: VDict, x) => mapValues(d, v => mul(v, x))
    case _ => throw new IllegalArgumentException(s"cannot multiply $a and $b")
  }

  private def mapValues(d: VDict, f: Value => Value): Value = {
    val m = LongMap.empty[Value]
    d.foreachEntry { (k, v) =>
      if (v != VZero) {
        val p = f(v)
        if (p != VZero) m.update(k, p)
      }
    }
    if (m.isEmpty) VZero else new VHashV(m)
  }

  /** Deep equality on canonicalized content (tests only — not hot). */
  def deepEq(a: Value, b: Value, eps: Double = 1e-9): Boolean = {
    def toMap(v: Value): Either[Double, Map[Long, Value]] = v match {
      case VZero   => Left(0.0)
      case VNum(d) => Left(d)
      case d: VDict =>
        var m = Map.empty[Long, Value]
        d.foreachEntry { (k, v) => if (v != VZero) m = m.updated(k, add(m.getOrElse(k, VZero), v)) }
        Right(m.filter { case (_, v) => !isZeroish(v, eps) })
    }
    (toMap(a), toMap(b)) match {
      case (Left(x), Left(y)) =>
        (x == y) || math.abs(x - y) <= eps * math.max(1.0, math.max(x.abs, y.abs))
      case (Right(x), Right(y)) =>
        x.keySet == y.keySet && x.forall { case (k, v) => deepEq(v, y(k), eps) }
      case (Left(x), Right(y)) => x == 0.0 && y.isEmpty
      case (Right(x), Left(y)) => y == 0.0 && x.isEmpty
    }
  }

  private def isZeroish(v: Value, eps: Double): Boolean = v match {
    case VZero   => true
    case VNum(d) => math.abs(d) <= eps
    case d: VDict =>
      var z = true
      d.foreachEntry { (_, v) => if (!isZeroish(v, eps)) z = false }
      z
  }

  /** Flatten a (nested) dictionary into COO rows `(keys..., value)`. */
  def toCoo(v: Value): Seq[(Vector[Long], Double)] = v match {
    case VZero   => Seq.empty
    case VNum(d) => if (d == 0) Seq.empty else Seq((Vector.empty, d))
    case d: VDict =>
      val buf = Seq.newBuilder[(Vector[Long], Double)]
      d.foreachEntry { (k, v) =>
        toCoo(v).foreach { case (ks, d) => buf += ((k +: ks, d)) }
      }
      // merge duplicate coordinates (e.g. from VSingle additions)
      buf.result().groupBy(_._1).map { case (ks, es) => (ks, es.map(_._2).sum) }
        .filter(_._2 != 0.0).toSeq.sortBy(_._1.mkString(","))
  }
}

/** Mutable accumulator for `sum` — specializes on the first inserted
  * entry: scalar, numeric hash, numeric dense array, nested hash, or
  * nested dense array; upgrades representation if later entries do not
  * fit the specialization. */
final class Acc {
  import Acc._
  private var mode: Int = Empty
  private var num: Double = 0.0
  private var hn: LongMap[Double] = null
  private var hv: LongMap[Value] = null
  private var dn: Array[Double] = null
  private var dv: Array[Value] = null
  private var dLen: Int = 0 // logical length (max key + 1) of dense modes

  /** Dense arrays beyond this many slots fall back to hash (safety). */
  private val DenseCap = 1 << 26

  private def growN(need: Int): Unit = {
    if (need > dn.length) {
      val n = math.max(need, dn.length * 2)
      dn = java.util.Arrays.copyOf(dn, n)
    }
    if (need > dLen) dLen = need
  }
  private def growV(need: Int): Unit = {
    if (need > dv.length) {
      val n = math.max(need, dv.length * 2)
      dv = java.util.Arrays.copyOf(dv, n)
    }
    if (need > dLen) dLen = need
  }

  /** Add a whole value (the generic `sum` path and dict `+`). */
  def plus(v: Value): Unit = v match {
    case VZero   => ()
    case VNum(d) =>
      mode match {
        case Empty => mode = Scalar; num = d
        case Scalar => num += d
        case _ => throw new IllegalArgumentException("mixing scalar and dictionary in sum")
      }
    case d: VDict =>
      // preserve denseness when merging a dense vector into an empty acc
      d match {
        case dd: VDenseN if mode == Empty =>
          mode = DenseN; dn = java.util.Arrays.copyOf(dd.a, math.max(4, dd.a.length)); dLen = dd.a.length
        case _ =>
          d.foreachEntry { (k, v) => if (v != VZero) plusEntry(k, v, dense = false) }
      }
    case _ => ()
  }

  /** Insert one `{k -> v}` entry; `dense` asks for array-backed storage. */
  def plusEntry(k: Long, v: Value, dense: Boolean): Unit = {
    if (v == VZero) return
    mode match {
      case Empty =>
        v match {
          case VNum(d) =>
            if (dense && k >= 0 && k < DenseCap) {
              mode = DenseN; dn = new Array[Double](math.max(4, (k + 1).toInt)); dLen = 0
              growN((k + 1).toInt); dn(k.toInt) = d
            } else { mode = HashN; hn = LongMap.empty; hn.update(k, d) }
          case _ =>
            if (dense && k >= 0 && k < DenseCap) {
              mode = DenseV; dv = new Array[Value](math.max(4, (k + 1).toInt)); dLen = 0
              growV((k + 1).toInt); dv(k.toInt) = v
            } else { mode = HashV; hv = LongMap.empty; hv.update(k, v) }
        }
      case Scalar => throw new IllegalArgumentException("mixing scalar and dictionary in sum")
      case HashN =>
        v match {
          case VNum(d) => hn.update(k, hn.getOrElse(k, 0.0) + d)
          case _ => upgradeToHashV(); plusEntry(k, v, dense)
        }
      case HashV =>
        hv.update(k, Value.add(hv.getOrElse(k, VZero), v))
      case DenseN =>
        v match {
          case VNum(d) if k >= 0 && k < DenseCap =>
            growN((k + 1).toInt); dn(k.toInt) += d
          case _ => upgradeDenseNToHashV(); plusEntry(k, v, dense)
        }
      case DenseV =>
        if (k >= 0 && k < DenseCap) {
          growV((k + 1).toInt)
          val old = dv(k.toInt)
          dv(k.toInt) = if (old == null) v else Value.add(old, v)
        } else { upgradeDenseVToHashV(); plusEntry(k, v, dense) }
    }
  }

  private def upgradeToHashV(): Unit = {
    hv = LongMap.empty
    hn.foreachEntry((k, d) => hv.update(k, VNum(d)))
    hn = null; mode = HashV
  }
  private def upgradeDenseNToHashV(): Unit = {
    hv = LongMap.empty
    var i = 0
    while (i < dLen) { if (dn(i) != 0) hv.update(i.toLong, VNum(dn(i))); i += 1 }
    dn = null; mode = HashV
  }
  private def upgradeDenseVToHashV(): Unit = {
    hv = LongMap.empty
    var i = 0
    while (i < dLen) { if (dv(i) != null) hv.update(i.toLong, dv(i)); i += 1 }
    dv = null; mode = HashV
  }

  def result: Value = mode match {
    case Empty  => VZero
    case Scalar => if (num == 0) VZero else VNum(num)
    case HashN  => if (hn.isEmpty) VZero else new VHashN(hn)
    case HashV  => if (hv.isEmpty) VZero else new VHashV(hv)
    case DenseN => new VDenseN(java.util.Arrays.copyOf(dn, dLen))
    case DenseV =>
      val a = java.util.Arrays.copyOf(dv, dLen)
      var i = 0
      while (i < a.length) { if (a(i) == null) a(i) = VZero; i += 1 }
      new VDenseV(a)
  }
}

object Acc {
  private final val Empty = 0
  private final val Scalar = 1
  private final val HashN = 2
  private final val HashV = 3
  private final val DenseN = 4
  private final val DenseV = 5
}
