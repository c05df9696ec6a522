package repro.storage

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.exec._

/** Every storage mapping must round-trip: evaluating the TSM over the
  * physical symbols yields exactly the logical tensor. */
class TensorsSpec extends AnyFunSuite {

  private val mat = CooMat.random(17, 23, 60, seed = 42)
  private val ref = mat.toValue

  private def check(st: Storage): Unit = {
    val got = Interp.run(st.tsm, st.symbols)
    assert(Value.deepEq(got, ref), s"${st.format} TSM does not round-trip")
  }

  test("Dense TSM round-trips")(check(Formats.denseMat("A", mat)))
  test("CSR TSM round-trips")(check(Formats.csr("A", mat)))
  test("CSC TSM round-trips")(check(Formats.csc("A", mat)))
  test("DCSR TSM round-trips")(check(Formats.dcsr("A", mat)))
  test("COO TSM round-trips")(check(Formats.coo("A", mat)))
  test("DOK hash TSM round-trips")(check(Formats.dok("A", mat)))
  test("Trie TSM round-trips")(check(Formats.trie("A", mat)))

  test("DCSR stores only non-empty rows") {
    // a matrix with empty rows
    val m = CooMat(5, 4, Array((0, 1, 2.0), (0, 3, 1.0), (3, 0, 4.0)))
    val st = Formats.dcsr("B", m)
    val idx1 = st.symbols("B_idx1").asInstanceOf[VDenseL].a
    assert(idx1.toSeq == Seq(0L, 3L))
    assert(Value.deepEq(Interp.run(st.tsm, st.symbols), m.toValue))
  }

  // C = row0: (6,0,9,8); row1 empty; row2: (5,0,0,7)
  private val fig1 = CooMat(3, 4, Array((0, 0, 6.0), (0, 2, 9.0), (0, 3, 8.0),
    (2, 0, 5.0), (2, 3, 7.0)))

  test("CSR of the paper's Fig. 1 matrix") {
    val st = Formats.csr("C", fig1)
    assert(st.symbols("C_pos2").asInstanceOf[VDenseL].a.toSeq == Seq(0L, 3L, 3L, 5L))
    assert(st.symbols("C_idx2").asInstanceOf[VDenseL].a.toSeq == Seq(0L, 2L, 3L, 0L, 3L))
    assert(st.symbols("C_val").asInstanceOf[VDenseN].a.toSeq == Seq(6.0, 9.0, 8.0, 5.0, 7.0))
    assert(Value.deepEq(Interp.run(st.tsm, st.symbols), fig1.toValue))
  }

  // The optimizer plans against a storage's TSM shape and cards, so these
  // pins hold them fixed.
  private def pin(st: Storage, tsm: String, logicalCard: Card,
                  symCards: Map[String, Card], avgSegment: Double): Unit = {
    assert(Expr.pretty(st.tsm) == tsm)
    assert(st.logicalCard == logicalCard)
    assert(st.symCards == symCards)
    assert(st.avgSegment == avgSegment)
  }

  test("CSR pins its TSM and cards on the Fig. 1 matrix") {
    pin(Formats.csr("C", fig1),
      "sum(<k,v> in (0:3)) {@unique k -> " +
        "sum(<a,b> in C_idx2(C_pos2(k):C_pos2((k + 1)))) {@unique b -> C_val(a)}}",
      Card.of(1.0, (3, true), (5.0 / 3, false)),
      Map("C_pos2" -> Card.vec(4), "C_idx2" -> Card.vec(5), "C_val" -> Card.vec(5)),
      5.0 / 3)
  }

  test("DCSR pins its TSM and cards on the Fig. 1 matrix") {
    pin(Formats.dcsr("C", fig1),
      "sum(<k,v> in C_idx1(C_pos1(0):C_pos1(1))) {@unique v -> " +
        "sum(<a,b> in C_idx2(C_pos2(k):C_pos2((k + 1)))) {@unique b -> C_val(a)}}",
      Card.of(1.0, (2, false), (2.5, false)),
      Map("C_pos1" -> Card.vec(2), "C_idx1" -> Card.vec(2), "C_pos2" -> Card.vec(3),
        "C_idx2" -> Card.vec(5), "C_val" -> Card.vec(5)),
      2.5)
  }

  test("CSC pins its TSM and cards on the Fig. 1 matrix") {
    pin(Formats.csc("C", fig1),
      "sum(<k,v> in (0:4)) " +
        "sum(<a,b> in C_idx2(C_pos2(k):C_pos2((k + 1)))) {@unique b -> {k -> C_val(a)}}",
      Card.of(1.0, (3, false), (5.0 / 3, false)),
      Map("C_pos2" -> Card.vec(5), "C_idx2" -> Card.vec(5), "C_val" -> Card.vec(5)),
      1.25)
  }

  test("an empty DCSR has top card 1 and round-trips") {
    val st = Formats.dcsr("E", CooMat(3, 3, Array.empty))
    assert(st.logicalCard == Card.of(1.0, (1, false), (1, false)))
    assert(st.avgSegment == 1.0)
    assert(Value.deepEq(Interp.run(st.tsm, st.symbols), VZero))
  }

  test("compressed levels reject unsorted or repeated coordinates") {
    intercept[IllegalArgumentException](
      Formats.csr("U", CooMat(2, 2, Array((1, 0, 1.0), (0, 1, 2.0)))))
    intercept[IllegalArgumentException](
      Formats.dcsr("U", CooMat(2, 2, Array((0, 1, 1.0), (0, 0, 2.0)))))
    intercept[IllegalArgumentException](
      Formats.csf("U", Coo3(2, 2, 2, Array((0, 1, 1, 1.0), (0, 1, 1, 2.0)))))
  }

  test("dense vector TSM is the identity mapping") {
    val st = Formats.denseVec("X", Array(1.0, 0.0, 3.0))
    assert(st.tsm == Sym("X_V"))
    assert(Value.deepEq(Interp.run(st.tsm, st.symbols), new VDenseN(Array(1.0, 0.0, 3.0))))
  }

  test("sparse vector TSM round-trips") {
    val st = Formats.sparseVec("X", Array((2, 5.0), (7, -1.0)))
    val got = Value.asDict(Interp.run(st.tsm, st.symbols))
    assert(Value.asNum(got.get(2)) == 5.0)
    assert(Value.asNum(got.get(7)) == -1.0)
    assert(got.get(3) == VZero)
  }

  test("CSF rank-3 TSM round-trips") {
    val t = Coo3.random(7, 9, 11, 50, seed = 7)
    val st = Formats.csf("T", t)
    assert(Value.deepEq(Interp.run(st.tsm, st.symbols), t.toValue))
  }

  private val csfSmall = Coo3(2, 2, 3, Array((0, 0, 1, 1.0), (0, 1, 0, 2.0), (1, 1, 2, 3.0)))

  test("CSF segments are consistent") {
    val st = Formats.csf("T", csfSmall)
    assert(st.symbols("T_idx1").asInstanceOf[VDenseL].a.toSeq == Seq(0L, 1L))
    assert(st.symbols("T_pos2").asInstanceOf[VDenseL].a.toSeq == Seq(0L, 2L, 3L))
    assert(Value.deepEq(Interp.run(st.tsm, st.symbols), csfSmall.toValue))
  }

  test("CSF pins its TSM and cards") {
    pin(Formats.csf("T", csfSmall),
      "sum(<k,v> in T_idx1(T_pos1(0):T_pos1(1))) {@unique v -> " +
        "sum(<a,b> in T_idx2(T_pos2(k):T_pos2((k + 1)))) {@unique b -> " +
        "sum(<c,d> in T_idx3(T_pos3(a):T_pos3((a + 1)))) {@unique d -> T_val(c)}}}",
      Card.of(1.0, (2, false), (1.5, false), (1, false)),
      Map("T_pos1" -> Card.vec(2), "T_idx1" -> Card.vec(2), "T_pos2" -> Card.vec(3),
        "T_idx2" -> Card.vec(3), "T_pos3" -> Card.vec(4), "T_idx3" -> Card.vec(3),
        "T_val" -> Card.vec(3)),
      1.5)
  }

  test("lower-triangular TSM round-trips") {
    val n = 5
    val vals = Array.tabulate(n * (n + 1) / 2)(i => (i + 1).toDouble)
    val st = Formats.lowerTriangular("L", n, vals)
    val got = Value.asDict(Interp.run(st.tsm, st.symbols))
    // L(i,j) = vals(i(i+1)/2 + j) for j <= i
    assert(Value.asNum(Value.asDict(got.get(0)).get(0)) == 1.0)
    assert(Value.asNum(Value.asDict(got.get(2)).get(1)) == 5.0)
    assert(Value.asDict(got.get(1)).get(3) == VZero)
  }

  test("band matrix TSM round-trips") {
    val n = 4
    val vals = Array.tabulate(3 * n - 2)(i => (i + 1).toDouble)
    val st = Formats.band("B", n, vals)
    val got = Value.asDict(Interp.run(st.tsm, st.symbols))
    assert(Value.asNum(Value.asDict(got.get(0)).get(0)) == 1.0)  // diag 0 = vals(0)
    assert(Value.asNum(Value.asDict(got.get(0)).get(1)) == 2.0)  // upper 0 = vals(1)
    assert(Value.asNum(Value.asDict(got.get(1)).get(0)) == 3.0)  // lower 0 = vals(2)
    assert(Value.asNum(Value.asDict(got.get(3)).get(3)) == 10.0) // diag 3 = vals(9)
    assert(Value.asDict(got.get(0)).get(2) == VZero)
  }

  test("Z-order TSM recovers (i,j) from Morton code") {
    val n = 4
    val vals = new Array[Double](n * n)
    // store value i*10 + j at morton(i, j)
    def morton(i: Int, j: Int): Int = {
      var d = 0
      (0 until 2).foreach { b =>
        d |= ((i >> b) & 1) << (2 * b)
        d |= ((j >> b) & 1) << (2 * b + 1)
      }
      d
    }
    for (i <- 0 until n; j <- 0 until n) vals(morton(i, j)) = i * 10.0 + j + 1
    val st = Formats.zOrder("Z", n, vals)
    val got = Value.asDict(Interp.run(st.tsm, st.symbols))
    for (i <- 0 until n; j <- 0 until n)
      assert(Value.asNum(Value.asDict(got.get(i)).get(j)) == i * 10.0 + j + 1)
  }

  test("transpose round-trips") {
    val t = mat.transpose
    assert(t.m == mat.n && t.n == mat.m && t.nnz == mat.nnz)
    assert(t.transpose.entries.toSeq == mat.entries.toSeq)
  }

  test("random generators are deterministic in the seed") {
    val a = CooMat.random(10, 10, 20, 1)
    val b = CooMat.random(10, 10, 20, 1)
    assert(a.entries.toSeq == b.entries.toSeq)
    val t1 = Coo3.random(5, 5, 5, 10, 2)
    val t2 = Coo3.random(5, 5, 5, 10, 2)
    assert(t1.entries.toSeq == t2.entries.toSeq)
  }

  test("density computes correctly") {
    assert(math.abs(CooMat.random(10, 10, 25, 3).density - 0.25) < 1e-9)
  }
}
