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

  def dense(m: Int, n: Int, seed: Long): CooMat = {
    val rnd = new scala.util.Random(seed)
    CooMat(m, n, Array.tabulate(m * n)(p => (p / n, p % n, rnd.nextDouble() * 2 - 1)))
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

  /** CSR (Fig. 1(b,c), with the @unique annotations of Sec. 5.2). */
  def csr(name: String, mat: CooMat): Storage = sparseRows(name, "CSR", mat)

  /** CSC = CSR of the transpose, exposed as the *same* logical (i,j)
    * tensor: `sum(<col,_> in 0:N) sum(<off,row> in idx2(...))
    * { (row, col) -> val(off) }` — rows repeat, so no outer @unique. */
  def csc(name: String, mat: CooMat): Storage = {
    val t = mat.transpose
    val (pos2, idx2, vals) = crsArrays(t)
    val (pN, iN, vN) = (s"${name}_pos2", s"${name}_idx2", s"${name}_val")
    val tsm = compile(
      sum(gen("col")("_", rng(0, t.m)))(
        sum(gen("off")("row", sub(iN, get(pN, v("col")), get(pN, add(v("col"), 1)))))(
          SDict(List(v("row"), v("col")), get(vN, v("off")),
            unique = List(true, false)))))
    val seg = if (t.m == 0) 0.0 else mat.nnz.toDouble / t.m
    Storage(name, "CSC",
      Map(pN -> longArr(pos2), iN -> longArr(idx2), vN -> denseArr(vals)), tsm,
      Card.of(1.0, (mat.m, false), (math.max(1.0, mat.nnz.toDouble / math.max(1, mat.m)), false)),
      Map(pN -> Card.vec(pos2.length), iN -> Card.vec(idx2.length), vN -> Card.vec(vals.length)),
      math.max(1.0, seg))
  }

  private def crsArrays(mat: CooMat): (Array[Long], Array[Long], Array[Double]) = {
    val pos2 = new Array[Long](mat.m + 1)
    val idx2 = new Array[Long](mat.nnz)
    val vals = new Array[Double](mat.nnz)
    mat.entries.foreach { case (i, _, _) => pos2(i + 1) += 1 }
    var i = 0
    while (i < mat.m) { pos2(i + 1) += pos2(i); i += 1 }
    val cur = pos2.clone()
    mat.entries.foreach { case (i, j, v) =>
      val p = cur(i).toInt; idx2(p) = j.toLong; vals(p) = v; cur(i) += 1
    }
    (pos2, idx2, vals)
  }

  private def sparseRows(name: String, fmt: String, mat: CooMat): Storage = {
    val (pos2, idx2, vals) = crsArrays(mat)
    val (pN, iN, vN) = (s"${name}_pos2", s"${name}_idx2", s"${name}_val")
    val tsm = compile(
      sum(gen("row")("_", rng(0, mat.m)))(
        SDict(List(v("row")),
          sum(gen("off")("col", sub(iN, get(pN, v("row")), get(pN, add(v("row"), 1)))))(
            SDict(List(v("col")), get(vN, v("off")), unique = List(true))),
          unique = List(true))))
    val seg = if (mat.m == 0) 0.0 else mat.nnz.toDouble / mat.m
    Storage(name, fmt,
      Map(pN -> longArr(pos2), iN -> longArr(idx2), vN -> denseArr(vals)), tsm,
      Card.of(1.0, (mat.m, true), (math.max(1.0, seg), false)),
      Map(pN -> Card.vec(pos2.length), iN -> Card.vec(idx2.length), vN -> Card.vec(vals.length)),
      math.max(1.0, seg))
  }

  /** DCSR (Example 4.2): sparse-sparse — only non-empty rows stored. */
  def dcsr(name: String, mat: CooMat): Storage = {
    val rows = mat.entries.map(_._1).distinct.sorted
    val rowRank = rows.zipWithIndex.toMap
    val pos1 = Array(0L, rows.length.toLong)
    val idx1 = rows.map(_.toLong)
    val pos2 = new Array[Long](rows.length + 1)
    val idx2 = new Array[Long](mat.nnz)
    val vals = new Array[Double](mat.nnz)
    mat.entries.foreach { case (i, _, _) => pos2(rowRank(i) + 1) += 1 }
    var r = 0
    while (r < rows.length) { pos2(r + 1) += pos2(r); r += 1 }
    val cur = pos2.clone()
    mat.entries.foreach { case (i, j, v) =>
      val p = cur(rowRank(i)).toInt; idx2(p) = j.toLong; vals(p) = v; cur(rowRank(i)) += 1
    }
    val (p1N, i1N, p2N, i2N, vN) =
      (s"${name}_pos1", s"${name}_idx1", s"${name}_pos2", s"${name}_idx2", s"${name}_val")
    val tsm = compile(
      sum(gen("ipos")("i", sub(i1N, get(p1N, 0), get(p1N, 1))))(
        SDict(List(v("i")),
          sum(gen("jpos")("j", sub(i2N, get(p2N, v("ipos")), get(p2N, add(v("ipos"), 1)))))(
            SDict(List(v("j")), get(vN, v("jpos")), unique = List(true))),
          unique = List(true))))
    val seg = if (rows.isEmpty) 0.0 else mat.nnz.toDouble / rows.length
    Storage(name, "DCSR",
      Map(p1N -> longArr(pos1), i1N -> longArr(idx1), p2N -> longArr(pos2),
          i2N -> longArr(idx2), vN -> denseArr(vals)), tsm,
      Card.of(1.0, (rows.length, false), (math.max(1.0, seg), false)),
      Map(p1N -> Card.vec(2), i1N -> Card.vec(idx1.length),
          p2N -> Card.vec(pos2.length), i2N -> Card.vec(idx2.length),
          vN -> Card.vec(vals.length)),
      math.max(1.0, seg))
  }

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
  def sparseVec(name: String, n: Int, entries: Array[(Int, Double)]): Storage = {
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
  def csf(name: String, t: Coo3): Storage = {
    val e = t.entries
    // level 1: distinct i; level 2: distinct (i,j) per i; level 3: k per (i,j)
    val i1 = Array.newBuilder[Long]; val p2 = Array.newBuilder[Long]
    val i2 = Array.newBuilder[Long]; val p3 = Array.newBuilder[Long]
    val i3 = new Array[Long](e.length); val vs = new Array[Double](e.length)
    p2 += 0L; p3 += 0L
    var n2 = 0L; var n3 = 0L
    var x = 0
    while (x < e.length) {
      val i = e(x)._1
      i1 += i.toLong
      while (x < e.length && e(x)._1 == i) {
        val j = e(x)._2
        i2 += j.toLong; n2 += 1
        while (x < e.length && e(x)._1 == i && e(x)._2 == j) {
          i3(n3.toInt) = e(x)._3.toLong; vs(n3.toInt) = e(x)._4; n3 += 1; x += 1
        }
        p3 += n3
      }
      p2 += n2
    }
    val i1a = i1.result(); val p2a = p2.result(); val i2a = i2.result(); val p3a = p3.result()
    val (p1N, i1N, p2N, i2N, p3N, i3N, vN) =
      (s"${name}_pos1", s"${name}_idx1", s"${name}_pos2", s"${name}_idx2",
       s"${name}_pos3", s"${name}_idx3", s"${name}_val")
    val tsm = compile(
      sum(gen("p1")("i", sub(i1N, get(p1N, 0), get(p1N, 1))))(
        SDict(List(v("i")),
          sum(gen("p2")("j", sub(i2N, get(p2N, v("p1")), get(p2N, add(v("p1"), 1)))))(
            SDict(List(v("j")),
              sum(gen("p3")("k", sub(i3N, get(p3N, v("p2")), get(p3N, add(v("p2"), 1)))))(
                SDict(List(v("k")), get(vN, v("p3")), unique = List(true))),
              unique = List(true))),
          unique = List(true))))
    val s1 = i1a.length.toDouble
    val s2 = if (s1 == 0) 1.0 else i2a.length / s1
    val s3 = if (i2a.isEmpty) 1.0 else e.length.toDouble / i2a.length
    Storage(name, "CSF",
      Map(p1N -> longArr(Array(0L, i1a.length.toLong)), i1N -> longArr(i1a),
          p2N -> longArr(p2a), i2N -> longArr(i2a),
          p3N -> longArr(p3a), i3N -> longArr(i3), vN -> denseArr(vs)), tsm,
      Card.of(1.0, (math.max(1.0, s1), false), (math.max(1.0, s2), false), (math.max(1.0, s3), false)),
      Map(p1N -> Card.vec(2), i1N -> Card.vec(i1a.length), p2N -> Card.vec(p2a.length),
          i2N -> Card.vec(i2a.length), p3N -> Card.vec(p3a.length),
          i3N -> Card.vec(i3.length), vN -> Card.vec(vs.length)),
      math.max(1.0, math.max(s2, s3)))
  }

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
