package repro.relational

import repro.{Oracle, SparkSpec}
import repro.exec.{Value, VNum}
import repro.kernels.Kernels
import repro.storage.{CooMat, Coo3}

/** Every relational kernel is checked against DuckDB running the same
  * SQL over the same COO relations, via the canonicalizing Oracle. */
class RelKernelsSpec extends SparkSpec {

  private lazy val a = CooMat.random(25, 25, 90, seed = 21)
  private lazy val b = CooMat.random(25, 18, 60, seed = 22)
  private lazy val x = Array.tabulate(25)(i => 0.1 * i - 0.7)
  private lazy val a3 = Coo3.random(9, 8, 10, 70, seed = 23)
  private lazy val bT = CooMat.random(7, 10, 25, seed = 24)
  private lazy val bM = CooMat.random(8, 6, 20, seed = 25)
  private lazy val cM = CooMat.random(10, 6, 22, seed = 26)

  private lazy val aDF = RelKernels.matrixDF(spark, a)
  private lazy val bDF = RelKernels.matrixDF(spark, b)
  private lazy val xDF = RelKernels.vectorDF(spark, x)
  private lazy val a3DF = RelKernels.tensorDF(spark, a3)

  // The Oracle loads tables with VARCHAR columns, so its SQL casts
  // values explicitly (joins compare the textual keys, which is exact).
  test("MMM DataFrame plan matches DuckDB") {
    Oracle.assertEquivalent(RelKernels.mmm(aDF, bDF),
      "SELECT a.i AS i, b.j AS j, " +
      "SUM(CAST(a.v AS DOUBLE) * CAST(b.v AS DOUBLE)) AS v " +
      "FROM A a JOIN B b ON a.j = b.i GROUP BY a.i, b.j",
      "A" -> aDF, "B" -> bDF)
  }

  test("SumMMM DataFrame plan matches DuckDB") {
    Oracle.assertEquivalent(RelKernels.sumMmm(aDF, bDF),
      "SELECT SUM(CAST(a.v AS DOUBLE) * CAST(b.v AS DOUBLE)) AS v " +
      "FROM A a JOIN B b ON a.j = b.i",
      "A" -> aDF, "B" -> bDF)
  }

  test("BATAX DataFrame plan matches DuckDB") {
    Oracle.assertEquivalent(RelKernels.batax(2.5, aDF, xDF),
      "SELECT a1.j AS j, SUM(2.5 * CAST(a1.v AS DOUBLE) * " +
      "CAST(a2.v AS DOUBLE) * CAST(x.v AS DOUBLE)) AS v " +
      "FROM A a1 JOIN A a2 ON a1.i = a2.i JOIN X x ON a2.j = x.i GROUP BY a1.j",
      "A" -> aDF, "X" -> xDF)
  }

  test("TTM DataFrame plan matches DuckDB") {
    val btDF = RelKernels.matrixDF(spark, bT)
    Oracle.assertEquivalent(RelKernels.ttm(a3DF, btDF),
      "SELECT a.i AS i, a.j AS j, b.i AS k, " +
      "SUM(CAST(a.v AS DOUBLE) * CAST(b.v AS DOUBLE)) AS v " +
      "FROM A3 a JOIN B b ON a.k = b.j GROUP BY a.i, a.j, b.i",
      "A3" -> a3DF, "B" -> btDF)
  }

  test("MTTKRP DataFrame plan matches DuckDB") {
    val bmDF = RelKernels.matrixDF(spark, bM)
    val cmDF = RelKernels.matrixDF(spark, cM)
    Oracle.assertEquivalent(RelKernels.mttkrp(a3DF, bmDF, cmDF),
      "SELECT a.i AS i, b.j AS j, SUM(CAST(a.v AS DOUBLE) * " +
      "CAST(b.v AS DOUBLE) * CAST(c.v AS DOUBLE)) AS v " +
      "FROM A3 a JOIN B b ON a.j = b.i " +
      "JOIN C c ON a.k = c.i AND b.j = c.j GROUP BY a.i, b.j",
      "A3" -> a3DF, "B" -> bmDF, "C" -> cmDF)
  }

  test("MMM DataFrame result matches the kernel reference") {
    val rows = RelKernels.mmm(aDF, bDF).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
    val ref = Value.toCoo(Kernels.refMmm(a, b))
      .map { case (ks, v) => ((ks(0), ks(1)), v) }.toMap
    assert(rows.keySet == ref.keySet)
    rows.foreach { case (k, v) => assert(math.abs(v - ref(k)) < 1e-9) }
  }

  test("DuckKernels baseline computes the correct checksums") {
    val db = DuckKernels.open()
    try {
      db.loadMatrix("A", a); db.loadMatrix("B", b); db.loadVector("X", x)
      db.loadTensor("A3", a3)
      assert(Value.deepEq(Value.fromCoo(db.query(RelKernels.Sql.sumMmm)),
        VNum(Kernels.refSumMmm(a, b))))
      assert(Value.deepEq(Value.fromCoo(db.query(RelKernels.Sql.batax(2.5))),
        Kernels.refBatax(2.5, a, x)))
    } finally db.close()
  }

  test("DuckKernels tensor load + MTTKRP checksum") {
    val db = DuckKernels.open()
    try {
      db.loadTensor("A3", a3); db.loadMatrix("B", bM); db.loadMatrix("C", cM)
      assert(Value.deepEq(Value.fromCoo(db.query(RelKernels.Sql.mttkrp)),
        Kernels.refMttkrp(a3, bM, cM)))
    } finally db.close()
  }
}
