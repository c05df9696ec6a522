package repro.storage

import repro.core._
import repro.core.Sugar._
import repro.exec._
import scala.collection.mutable.LongMap

/** Driver-side sparse matrix in coordinate form, entries sorted
  * row-major with distinct coordinates. */
final case class CooMat(m: Int, n: Int, entries: Array[(Int, Int, Double)]) {
  def nnz: Int = entries.length
  def density: Double = nnz.toDouble / (m.toDouble * n.toDouble)
  def transpose: CooMat =
    CooMat(n, m, entries.map { case (i, j, v) => (j, i, v) }.sortBy(e => (e._1, e._2)))
  /** Reference logical value: nested hash {i -> {j -> v}}. */
  def toValue: Value = {
    val outer = LongMap.empty[Value]
    entries.foreach { case (i, j, v) =>
      val row = outer.getOrElseUpdate(i.toLong, new VHashN(LongMap.empty)).asInstanceOf[VHashN]
      row.m.update(j.toLong, row.m.getOrElse(j.toLong, 0.0) + v)
    }
    if (outer.isEmpty) VZero else new VHashV(outer)
  }
}

object CooMat {
  /** Deterministic uniform-random sparse matrix with ~`nnz` distinct
    * coordinates (exact up to hash collisions being redrawn). */
  def random(m: Int, n: Int, nnz: Int, seed: Long): CooMat = {
    val rnd = new scala.util.Random(seed)
    val seen = collection.mutable.HashSet.empty[Long]
    val buf = Array.newBuilder[(Int, Int, Double)]
    var produced = 0
    val want = math.min(nnz.toLong, m.toLong * n - 1).toInt
    while (produced < want) {
      val i = rnd.nextInt(m); val j = rnd.nextInt(n)
      val key = i.toLong * n + j
      if (seen.add(key)) { buf += ((i, j, rnd.nextDouble() * 2 - 1)); produced += 1 }
    }
    CooMat(m, n, buf.result().sortBy(e => (e._1, e._2)))
  }
}

/** Driver-side rank-3 sparse tensor, entries sorted lexicographically. */
final case class Coo3(d1: Int, d2: Int, d3: Int,
                      entries: Array[(Int, Int, Int, Double)]) {
  def nnz: Int = entries.length
  def density: Double = nnz.toDouble / (d1.toDouble * d2.toDouble * d3.toDouble)
  def toValue: Value = {
    val l1 = LongMap.empty[Value]
    entries.foreach { case (i, j, k, v) =>
      val l2 = l1.getOrElseUpdate(i.toLong, new VHashV(LongMap.empty)).asInstanceOf[VHashV]
      val l3 = l2.m.getOrElseUpdate(j.toLong, new VHashN(LongMap.empty)).asInstanceOf[VHashN]
      l3.m.update(k.toLong, l3.m.getOrElse(k.toLong, 0.0) + v)
    }
    if (l1.isEmpty) VZero else new VHashV(l1)
  }
}

object Coo3 {
  def random(d1: Int, d2: Int, d3: Int, nnz: Int, seed: Long): Coo3 = {
    val rnd = new scala.util.Random(seed)
    val seen = collection.mutable.HashSet.empty[Long]
    val buf = Array.newBuilder[(Int, Int, Int, Double)]
    var produced = 0
    val want = math.min(nnz.toLong, d1.toLong * d2 * d3 - 1).toInt
    while (produced < want) {
      val i = rnd.nextInt(d1); val j = rnd.nextInt(d2); val k = rnd.nextInt(d3)
      val key = (i.toLong * d2 + j) * d3 + k
      if (seen.add(key)) { buf += ((i, j, k, rnd.nextDouble() * 2 - 1)); produced += 1 }
    }
    Coo3(d1, d2, d3, buf.result().sortBy(e => (e._1, e._2, e._3)))
  }
}

/** The result of materializing one tensor in one storage format: the
  * named physical data values (Sec. 4's CREATE ARRAY/HASHMAP/TRIE), the
  * Tensor Storage Mapping as a closed SDQLite expression over those
  * names, and statistics for the optimizer. */
final case class Storage(
    tensor: String,
    format: String,
    symbols: Map[String, Value],
    tsm: Expr,
    /** Cardinality of the logical tensor this TSM denotes. */
    logicalCard: Card,
    /** Cardinalities of the physical symbols. */
    symCards: Map[String, Card],
    /** Average inner-segment size (for Stats.defaultSegment). */
    avgSegment: Double)

/** Builders for every storage format in the paper (Secs. 2 and 4). Each
  * returns the physical arrays/hash-maps plus the declarative storage
  * mapping, written in SDQLite exactly as in the paper's examples. */
object Formats {

  private def denseArr(a: Array[Double]) = new VDenseN(a)
  private def longArr(a: Array[Long]) = new VDenseL(a)

  /** Dense row-major matrix (Example 4.1):
    * `sum(<i,_> in 0:M, <j,_> in 0:N) { (i,j) -> V(i*N+j) }`. */
  def denseMat(name: String, mat: CooMat): Storage = {
    val a = new Array[Double](mat.m * mat.n)
    mat.entries.foreach { case (i, j, v) => a(i * mat.n + j) = v }
    val vN = s"${name}_V"
    // Nested-group form so each @unique annotation is true w.r.t. its
    // immediately enclosing sum (the flat two-generator form would put
    // `@unique i` inside the j-loop, where i repeats).
    val tsm = compile(
      sum(gen("i")("_", rng(0, mat.m)))(
        SDict(List(v("i")),
          sum(gen("j")("_", rng(0, mat.n)))(
            SDict(List(v("j")),
              get(vN, add(mul(v("i"), mat.n), v("j"))),
              unique = List(true))),
          unique = List(true))))
    Storage(name, "Dense", Map(vN -> denseArr(a)), tsm,
      Card.of(1.0, (mat.m, true), (mat.n, true)),
      Map(vN -> Card.vec(a.length)),
      mat.n.toDouble)
  }

  /** The dense top level of a [[Formats.compressedLevels]] storage: keys
    * `0:n`, bounded in the TSM by the scalar symbol `sym` if given (its
    * value `n` is then stored too), else by the literal `n`. */
  private[repro] final case class DenseTop(n: Int, sym: Option[String] = None)

  /** A stack of compressed levels over a `val` array — CSR, DCSR and CSF
    * are all this level format (Chou et al., OOPSLA 2018). `keys(l)(e)`
    * is entry `e`'s level-`l` key; entries are sorted and distinct. With
    * a `top`, level 1 is dense, `sum(<k,_> in 0:n) {@unique k -> ...}`,
    * and its key is its position. Every other level `l` stores
    * `<name>_pos<l>`/`<name>_idx<l>`, read at parent position `q` (a
    * literal 0 at the top) as `sum(<p,k> in idx_l(pos_l(q):pos_l(q+1)))
    * {@unique k -> ...}`; the innermost body is `<name>_val(p)`. Cards:
    * each array its length; a dense level `(n, dense)`; a compressed
    * level `max(1, entries_l / entries_(l-1))` hashed; the average
    * segment is the largest level card below the top. */
  private[repro] def compressedLevels(name: String, fmt: String, keys: Seq[Array[Long]],
                                      vals: Array[Double], top: Option[DenseTop]): Storage = {
    val symbols = Map.newBuilder[String, Value]
    val symCards = Map.newBuilder[String, Card]
    def put(sym: String, value: Value, card: Card): Unit = {
      symbols += sym -> value; symCards += sym -> card
    }
    val levels = List.newBuilder[(Double, Boolean)]
    val nnz = vals.length
    // node position of each entry at the level above, and how many there are
    var parent = top.fold(new Array[Int](nnz))(_ => keys.head.map(_.toInt))
    var parents = top.fold(1)(_.n)
    top.foreach { t =>
      levels += ((t.n.toDouble, true))
      t.sym.foreach(put(_, VNum(t.n.toDouble), Card.scalar))
    }
    for (l <- (if (top.isEmpty) 0 else 1) until keys.length) {
      val key = keys(l)
      val node = new Array[Int](nnz)
      val pos = new Array[Long](parents + 1)
      val idx = Array.newBuilder[Long]
      var nodes = 0
      for (e <- 0 until nnz) {
        val sameParent = e > 0 && parent(e) == parent(e - 1)
        // not `require`, whose by-name message allocates once per entry
        if (!(e == 0 || parent(e) > parent(e - 1) || (sameParent && key(e) >= key(e - 1))))
          throw new IllegalArgumentException(s"requirement failed: $fmt $name: coordinates must be sorted")
        if (!sameParent || key(e) != key(e - 1)) { idx += key(e); pos(parent(e) + 1) += 1; nodes += 1 }
        node(e) = nodes - 1
      }
      for (q <- 0 until parents) pos(q + 1) += pos(q)
      val idxA = idx.result()
      put(s"${name}_pos${l + 1}", longArr(pos), Card.vec(pos.length))
      put(s"${name}_idx${l + 1}", longArr(idxA), Card.vec(idxA.length))
      levels += ((math.max(1.0, if (parents == 0) 0.0 else nodes.toDouble / parents), false))
      parent = node; parents = nodes
    }
    require(parents == nnz, s"$fmt $name: coordinates must be distinct")
    val vN = s"${name}_val"
    put(vN, denseArr(vals), Card.vec(nnz))

    // `q` names the parent position; None is the literal 0 at the top.
    def level(l: Int, q: Option[String]): S =
      if (l == keys.length) get(vN, v(q.get))
      else {
        val (p, k) = (s"p$l", s"k$l")
        top match {
          case Some(t) if l == 0 =>
            sum(gen(k)("_", rng(0, t.sym.fold(intLit(t.n))(v))))(
              SDict(List(v(k)), level(1, Some(k)), unique = List(true)))
          case _ =>
            val (pN, iN) = (s"${name}_pos${l + 1}", s"${name}_idx${l + 1}")
            val (lo, hi) = q.fold((intLit(0), intLit(1)))(q => (v(q), add(v(q), 1)))
            sum(gen(p)(k, sub(iN, get(pN, lo), get(pN, hi))))(
              SDict(List(v(k)), level(l + 1, Some(p)), unique = List(true)))
        }
      }

    val ls = levels.result()
    Storage(name, fmt, symbols.result(), compile(level(0, None)), Card.of(1.0, ls: _*),
      symCards.result(), ls.drop(1).map(_._1).foldLeft(1.0)(math.max))
  }

  private def matLevels(name: String, fmt: String, mat: CooMat, top: Option[DenseTop]) =
    compressedLevels(name, fmt, Seq(mat.entries.map(_._1.toLong), mat.entries.map(_._2.toLong)),
      mat.entries.map(_._3), top)

  /** CSR (Fig. 1(b,c), with the @unique annotations of Sec. 5.2). */
  def csr(name: String, mat: CooMat): Storage = matLevels(name, "CSR", mat, Some(DenseTop(mat.m)))

  /** CSC = CSR of the transpose, exposed as the *same* logical (i,j)
    * tensor: `sum(<col,_> in 0:N) sum(<off,row> in idx2(...))
    * { (row, col) -> val(off) }` — rows repeat, so no outer @unique. */
  def csc(name: String, mat: CooMat): Storage = {
    val (pN, iN, vN) = (s"${name}_pos2", s"${name}_idx2", s"${name}_val")
    val tsm = compile(
      sum(gen("col")("_", rng(0, mat.n)))(
        sum(gen("off")("row", sub(iN, get(pN, v("col")), get(pN, add(v("col"), 1)))))(
          SDict(List(v("row"), v("col")), get(vN, v("off")),
            unique = List(true, false)))))
    matLevels(name, "CSC", mat.transpose, Some(DenseTop(mat.n))).copy(tsm = tsm,
      logicalCard = Card.of(1.0, (mat.m, false),
        (math.max(1.0, mat.nnz.toDouble / math.max(1, mat.m)), false)))
  }

  /** DCSR (Example 4.2): sparse-sparse — only non-empty rows stored. */
  def dcsr(name: String, mat: CooMat): Storage = matLevels(name, "DCSR", mat, None)

  /** COO (Sec. 2): parallel idx1/idx2/val arrays, row-major sorted. */
  def coo(name: String, mat: CooMat): Storage = {
    val i1 = mat.entries.map(_._1.toLong)
    val i2 = mat.entries.map(_._2.toLong)
    val vs = mat.entries.map(_._3)
    val (i1N, i2N, vN) = (s"${name}_idx1", s"${name}_idx2", s"${name}_val")
    val tsm = compile(
      sum(gen("p")("_", rng(0, mat.nnz)))(
        SDict(List(get(i1N, v("p")), get(i2N, v("p"))), get(vN, v("p")))))
    Storage(name, "COO",
      Map(i1N -> longArr(i1), i2N -> longArr(i2), vN -> denseArr(vs)), tsm,
      Card.of(1.0, (mat.nnz, false), (1.0, false)),
      Map(i1N -> Card.vec(i1.length), i2N -> Card.vec(i2.length), vN -> Card.vec(vs.length)),
      1.0)
  }

  /** DOK hash-map (Example 4.3): flat hash keyed by `i*N + j`. */
  def dok(name: String, mat: CooMat): Storage = {
    val m = LongMap.empty[Double]
    mat.entries.foreach { case (i, j, x) => m.update(i.toLong * mat.n + j, x) }
    val hN = s"${name}_H"
    val tsm = compile(
      sum(gen("d")("x", hN))(
        SDict(List(SBin(BinOp.IDiv, v("d"), mat.n), SBin(BinOp.Mod, v("d"), mat.n)), v("x"))))
    Storage(name, "Hash",
      Map(hN -> new VHashN(m)), tsm,
      Card.of(1.0, (mat.nnz, false), (1.0, false)),
      Map(hN -> Card.vec(mat.nnz, dense = false)),
      1.0)
  }

  /** Trie of depth 2 (Example 4.3): hash of hashes. */
  def trie(name: String, mat: CooMat): Storage = {
    val tN = s"${name}_T"
    val nRows = mat.entries.map(_._1).distinct.length
    val seg = if (nRows == 0) 0.0 else mat.nnz.toDouble / nRows
    val tsm = compile(
      sum(gen("i")("row", tN))(
        SDict(List(v("i")),
          sum(gen("j")("x", v("row")))(
            SDict(List(v("j")), v("x"), unique = List(true))),
          unique = List(true))))
    Storage(name, "Trie",
      Map(tN -> mat.toValue), tsm,
      Card.of(1.0, (nRows, false), (math.max(1.0, seg), false)),
      Map(tN -> Card.of(1.0, (nRows, false), (math.max(1.0, seg), false))),
      math.max(1.0, seg))
  }

  /** Dense vector: the physical array IS the logical tensor. */
  def denseVec(name: String, x: Array[Double]): Storage = {
    val vN = s"${name}_V"
    Storage(name, "Dense", Map(vN -> denseArr(x)), Sym(vN),
      Card.vec(x.length), Map(vN -> Card.vec(x.length)), 1.0)
  }

  /** Sparse vector: parallel idx/val arrays. */
  def sparseVec(name: String, entries: Array[(Int, Double)]): Storage = {
    val sorted = entries.sortBy(_._1)
    val (iN, vN) = (s"${name}_idx", s"${name}_val")
    val tsm = compile(
      sum(gen("p")("i", iN))(
        SDict(List(v("i")), get(vN, v("p")), unique = List(true))))
    Storage(name, "Sparse",
      Map(iN -> longArr(sorted.map(_._1.toLong)), vN -> denseArr(sorted.map(_._2))),
      tsm, Card.vec(sorted.length, dense = false),
      Map(iN -> Card.vec(sorted.length), vN -> Card.vec(sorted.length)), 1.0)
  }

  /** CSF for a rank-3 tensor (the format used for TTM/MTTKRP). */
  def csf(name: String, t: Coo3): Storage =
    compressedLevels(name, "CSF",
      Seq(t.entries.map(_._1.toLong), t.entries.map(_._2.toLong), t.entries.map(_._3.toLong)),
      t.entries.map(_._4), None)

  /** Dense lower-triangular matrix (Sec. 4, "beyond" formats). */
  def lowerTriangular(name: String, n: Int, vals: Array[Double]): Storage = {
    require(vals.length == n * (n + 1) / 2)
    val vN = s"${name}_val"
    val tsm = compile(
      sum(gen("i")("_", rng(0, n)))(
        SDict(List(v("i")),
          sum(gen("j")("_", rng(0, add(v("i"), 1))))(
            SDict(List(v("j")),
              get(vN, add(SBin(BinOp.IDiv, mul(v("i"), add(v("i"), 1)), 2), v("j"))),
              unique = List(true))),
          unique = List(true))))
    Storage(name, "LowerTri", Map(vN -> denseArr(vals)), tsm,
      Card.of(1.0, (n, true), ((n + 1) / 2.0, true)),
      Map(vN -> Card.vec(vals.length)), (n + 1) / 2.0)
  }

  /** Tridiagonal band matrix (Sec. 4): B(i,j) != 0 only if |i-j| <= 1. */
  def band(name: String, n: Int, vals: Array[Double]): Storage = {
    require(vals.length == 3 * n - 2)
    val vN = s"${name}_val"
    val diag = SDict(List(v("p"), v("p")), get(vN, mul(v("p"), 3)))
    val upper = SDict(List(v("p"), add(v("p"), 1)), get(vN, add(mul(v("p"), 3), 1)))
    val lower = SDict(List(add(v("p"), 1), v("p")), get(vN, add(mul(v("p"), 3), 2)))
    val tsm = compile(
      sum(gen("p")("_", rng(0, n)))(
        add(diag, iff(SBin(BinOp.Lt, v("p"), n - 1))(add(upper, lower)))))
    Storage(name, "Band", Map(vN -> denseArr(vals)), tsm,
      Card.of(1.0, (n, false), (3.0, false)),
      Map(vN -> Card.vec(vals.length)), 3.0)
  }

  /** Z-order (Morton) space-filling curve; N must be a power of two. */
  def zOrder(name: String, nPow2: Int, vals: Array[Double]): Storage = {
    require(vals.length == nPow2 * nPow2 && Integer.bitCount(nPow2) == 1)
    val vN = s"${name}_val"
    val tsm = compile(
      sum(gen("d")("x", vN))(
        SDict(List(SBin(BinOp.EvenBits, v("d"), 0), SBin(BinOp.OddBits, v("d"), 0)), v("x"))))
    Storage(name, "ZOrder", Map(vN -> denseArr(vals)), tsm,
      Card.of(1.0, (nPow2, true), (nPow2, true)),
      Map(vN -> Card.vec(vals.length)), nPow2.toDouble)
  }
}
