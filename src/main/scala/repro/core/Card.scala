package repro.core

/** One level of a nested cardinality expression (Fig. 5): `n` estimated
  * keys, with the representation recorded so the cost model can apply
  * the right γ parameters (dense array vs. hash map iteration/lookup).
  */
final case class Level(n: Double, dense: Boolean)

/** Nested cardinality `c := s | n[c] | #m` from Sec. 5.5, extended with a
  * scalar `weight` so selectivities compose (`0.02 * 1[s] = 0.02[s]`):
  * a [[Card]] denotes `weight × n1[n2[...[s]]]`.
  */
final case class Card(weight: Double, levels: List[Level]) {
  /** Scalar (depth-0) cardinality? */
  def isScalar: Boolean = levels.isEmpty
  /** Estimated number of top-level entries when iterated. */
  def count: Double = weight * levels.headOption.map(_.n).getOrElse(1.0)
  /** Cardinality of the values one level down (what a `sum` binds `v` to,
    * or what a lookup returns). */
  def value: Card = Card(1.0, levels.drop(1))
  /** Is the top level dense (array-backed)? Scalar counts as dense. */
  def topDense: Boolean = levels.headOption.forall(_.dense)
  /** Total number of scalar slots reached. */
  def totalSize: Double = levels.foldLeft(weight)(_ * _.n)
  /** Scale the estimate (selectivity, summation fan-out). */
  def scaled(f: Double): Card = Card(weight * f, levels)
  /** Nest under a new top level of `n` keys. */
  def nested(n: Double, dense: Boolean): Card =
    Card(1.0, Level(n * weight, dense) :: levels)

  override def toString = {
    val body = levels.foldRight("s") { (l, acc) =>
      f"${l.n}%.3g${if (l.dense) "d" else "h"}[$acc]"
    }
    if (weight == 1.0) body else f"$weight%.3g*$body"
  }
}

object Card {
  val scalar: Card = Card(1.0, Nil)
  def vec(n: Double, dense: Boolean = true): Card =
    Card(1.0, List(Level(n, dense)))
  def of(weight: Double, ls: (Double, Boolean)*): Card =
    Card(weight, ls.toList.map { case (n, d) => Level(n, d) })
}

/** Data statistics for the optimizer: per-symbol cardinalities (supplied
  * by the storage builders — the paper has the DBA provide these) and
  * default selectivities. */
final case class Stats(
    symCards: Map[String, Card],
    selEq: Double = 0.1,
    /** Non-equality conditions in these kernels are mostly bounds
      * checks, which almost always pass — a low estimate makes
      * guarded materialization look spuriously cheap. */
    selOther: Double = 0.9,
    /** Fallback size for ranges/segments whose bounds are not literal —
      * e.g. `pos2(row):pos2(row+1)` — typically nnz / rows. */
    defaultSegment: Double = 8.0,
    /** Estimated key-space width of a freshly constructed `@dense`
      * dictionary: a dense array is iterated over its whole width, not
      * just its non-zeros — the heart of the dense/sparse tradeoff. */
    denseWidth: Double = 256.0) {

  /** The card of global symbol `sym`. A symbol without one is an error:
    * taking it for a scalar would let scalar-gated rules move a
    * dictionary past another. */
  def card(sym: String): Card =
    symCards.getOrElse(sym, throw new NoSuchElementException(s"no cardinality for symbol $sym"))
}
