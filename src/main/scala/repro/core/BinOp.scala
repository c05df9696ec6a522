package repro.core

/** A binary SDQLite operator (Sec. 3.2) and its scalar semantics, the
  * one definition that constant folding and the interpreter share.
  * Comparisons and logicals return 1 or 0; `%`, `idiv` and the bit ops
  * require whole operands. An operator prints as its symbol and hashes
  * as it, so terms print, and e-graphs hash-cons, the same in every run. */
sealed abstract class BinOp(val symbol: String) {
  def apply(x: Double, y: Double): Double
  override def toString: String = symbol
  override def hashCode: Int = symbol.hashCode
}

object BinOp {
  case object Add extends BinOp("+") { def apply(x: Double, y: Double) = x + y }
  case object Sub extends BinOp("-") { def apply(x: Double, y: Double) = x - y }
  case object Mul extends BinOp("*") { def apply(x: Double, y: Double) = x * y }
  case object Div extends BinOp("/") { def apply(x: Double, y: Double) = x / y }
  case object Mod extends BinOp("%") {
    def apply(x: Double, y: Double) = (whole(x) % whole(y)).toDouble
  }
  case object IDiv extends BinOp("idiv") {
    def apply(x: Double, y: Double) = Math.floorDiv(whole(x), whole(y)).toDouble
  }
  case object Eq extends BinOp("==") { def apply(x: Double, y: Double) = bool(x == y) }
  case object Lt extends BinOp("<") { def apply(x: Double, y: Double) = bool(x < y) }
  case object Le extends BinOp("<=") { def apply(x: Double, y: Double) = bool(x <= y) }
  case object Gt extends BinOp(">") { def apply(x: Double, y: Double) = bool(x > y) }
  case object Ge extends BinOp(">=") { def apply(x: Double, y: Double) = bool(x >= y) }
  case object And extends BinOp("&&") { def apply(x: Double, y: Double) = bool(x != 0 && y != 0) }
  case object Or extends BinOp("||") { def apply(x: Double, y: Double) = bool(x != 0 || y != 0) }
  /** The even bits of `x` (bit 0, 2, 4, ...) gathered into a compact
    * integer — the Morton-curve coordinate extraction (`even_bits` of
    * Sec. 4); `y` is ignored. */
  case object EvenBits extends BinOp("evenbits") {
    def apply(x: Double, y: Double) = compactBits(whole(x)).toDouble
  }
  /** The odd bits of `x`, as [[EvenBits]]. */
  case object OddBits extends BinOp("oddbits") {
    def apply(x: Double, y: Double) = compactBits(whole(x) >> 1).toDouble
  }

  /** `d` as a whole number; throws if it has a fractional part. */
  def whole(d: Double): Long = {
    val l = d.toLong
    require(l.toDouble == d, s"expected integer, got $d")
    l
  }

  private def bool(b: Boolean): Double = if (b) 1.0 else 0.0

  private def compactBits(x0: Long): Long = {
    var x = x0 & 0x5555555555555555L
    x = (x | (x >> 1)) & 0x3333333333333333L
    x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0fL
    x = (x | (x >> 4)) & 0x00ff00ff00ff00ffL
    x = (x | (x >> 8)) & 0x0000ffff0000ffffL
    x = (x | (x >> 16)) & 0x00000000ffffffffL
    x
  }
}
