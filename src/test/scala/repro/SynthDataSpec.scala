package repro

import org.apache.spark.sql.functions._

class SynthDataSpec extends SparkSpec {

  test("sparseMatrix produces distinct in-range coordinates") {
    val df = SynthData.sparseMatrix(spark, 50, 40, 300, seed = 1).cache()
    val n = df.count()
    assert(n == 300)
    assert(df.dropDuplicates("i", "j").count() == n)
    val r = df.agg(max("i"), max("j"), min("i"), min("j")).collect()(0)
    assert(r.getLong(0) < 50 && r.getLong(1) < 40)
    assert(r.getLong(2) >= 0 && r.getLong(3) >= 0)
  }

  test("sparseMatrix is deterministic in the seed") {
    val a = SynthData.sparseMatrix(spark, 30, 30, 100, seed = 5).collect().toSet
    val b = SynthData.sparseMatrix(spark, 30, 30, 100, seed = 5).collect().toSet
    assert(a == b)
  }

  test("sparseTensor3 produces distinct in-range coordinates") {
    val df = SynthData.sparseTensor3(spark, 10, 12, 14, 200, seed = 2).cache()
    assert(df.count() == 200)
    assert(df.dropDuplicates("i", "j", "k").count() == 200)
    val r = df.agg(max("i"), max("j"), max("k")).collect()(0)
    assert(r.getLong(0) < 10 && r.getLong(1) < 12 && r.getLong(2) < 14)
  }

  test("table2 descriptors preserve density under scaling") {
    SynthData.table2.foreach { d =>
      val scaledDensity = d.nnz.toDouble / d.dims.map(_.toDouble).product
      val ratio = scaledDensity / d.paperDensity
      assert(ratio > 0.9 && ratio < 1.1, s"${d.name}: $ratio")
    }
  }

  test("table2 has the paper's ten datasets") {
    assert(SynthData.table2.map(_.name) ==
      Seq("cant", "consph", "cop20k_A", "pdb1HYS", "rma10", "webbase",
          "NIPS", "NELL", "Facebook", "Enron"))
  }
}
