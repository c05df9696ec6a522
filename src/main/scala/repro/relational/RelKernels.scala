package repro.relational

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.storage.{CooMat, Coo3}

/** The relational baseline: tensors as COO relations, kernels as
  * aggregate-join queries over the Spark DataFrame (Catalyst) API — the
  * Spark analogue of the paper's DuckDB baseline. Catalyst picks binary
  * join plans and does not factorize or push aggregates past joins,
  * which is exactly the behavior Sec. 6.1 attributes to DuckDB on
  * ΣMMM/BATAX/MTTKRP.
  *
  * Matrices are relations (i, j, v); rank-3 tensors (i, j, k, v).
  * Every kernel aliases its output columns so `repro.Oracle` can diff
  * the result against DuckDB running the same SQL.
  */
object RelKernels {

  def matrixDF(spark: SparkSession, m: CooMat): DataFrame = {
    import spark.implicits._
    spark.createDataset(m.entries.toSeq.map(e => (e._1.toLong, e._2.toLong, e._3)))
      .toDF("i", "j", "v")
  }

  def tensorDF(spark: SparkSession, t: Coo3): DataFrame = {
    import spark.implicits._
    spark.createDataset(t.entries.toSeq.map(e => (e._1.toLong, e._2.toLong, e._3.toLong, e._4)))
      .toDF("i", "j", "k", "v")
  }

  def vectorDF(spark: SparkSession, x: Array[Double]): DataFrame = {
    import spark.implicits._
    spark.createDataset(x.toSeq.zipWithIndex.map { case (v, i) => (i.toLong, v) })
      .toDF("i", "v")
  }

  /** A result row as (key columns, value), the shape of
    * `DuckKernels.Db.query`'s rows. An empty `SUM` is 0. */
  def coo(r: Row): (Vector[Long], Double) = {
    val v = r.length - 1
    (Vector.tabulate(v)(r.getLong), if (r.isNullAt(v)) 0.0 else r.getDouble(v))
  }

  /** MMM: Q(i,j) = Σ_k A(i,k)·B(k,j). */
  def mmm(a: DataFrame, b: DataFrame): DataFrame = {
    val aa = a.as("a"); val bb = b.as("b")
    aa.join(bb, col("a.j") === col("b.i"))
      .groupBy(col("a.i").as("i"), col("b.j").as("j"))
      .agg(sum(col("a.v") * col("b.v")).as("v"))
  }

  /** ΣMMM: Q() = Σ A·B — the aggregate is NOT pushed past the join. */
  def sumMmm(a: DataFrame, b: DataFrame): DataFrame = {
    val aa = a.as("a"); val bb = b.as("b")
    aa.join(bb, col("a.j") === col("b.i"))
      .agg(sum(col("a.v") * col("b.v")).as("v"))
  }

  /** BATAX: Q(j) = Σ_{i,k} β·A(i,j)·A(i,k)·X(k) — a binary self-join
    * plan with a large intermediate, as a relational optimizer picks. */
  def batax(beta: Double, a: DataFrame, x: DataFrame): DataFrame = {
    val a1 = a.as("a1"); val a2 = a.as("a2"); val xx = x.as("x")
    a1.join(a2, col("a1.i") === col("a2.i"))
      .join(xx, col("a2.j") === col("x.i"))
      .groupBy(col("a1.j").as("j"))
      .agg(sum(lit(beta) * col("a1.v") * col("a2.v") * col("x.v")).as("v"))
  }

  /** TTM: Q(i,j,k) = Σ_l A(i,j,l)·B(k,l). Tensor relation columns
    * (i,j,k,v) stand for (i, j, l, value); B's (i,j) for (k, l). */
  def ttm(a: DataFrame, b: DataFrame): DataFrame = {
    val aa = a.as("a"); val bb = b.as("b")
    aa.join(bb, col("a.k") === col("b.j"))
      .groupBy(col("a.i").as("i"), col("a.j").as("j"), col("b.i").as("k"))
      .agg(sum(col("a.v") * col("b.v")).as("v"))
  }

  /** MTTKRP: Q(i,j) = Σ_{k,l} A(i,k,l)·B(k,j)·C(l,j). A's columns
    * (i,j,k) stand for (i, k, l); B's (i,j) for (k,j); C's for (l,j). */
  def mttkrp(a: DataFrame, b: DataFrame, c: DataFrame): DataFrame = {
    val aa = a.as("a"); val bb = b.as("b"); val cc = c.as("c")
    aa.join(bb, col("a.j") === col("b.i"))
      .join(cc, col("a.k") === col("c.i") && col("b.j") === col("c.j"))
      .groupBy(col("a.i").as("i"), col("b.j").as("j"))
      .agg(sum(col("a.v") * col("b.v") * col("c.v")).as("v"))
  }

  /** The equivalent SQL per kernel, for the DuckDB oracle/baseline. */
  object Sql {
    val mmm: String =
      "SELECT a.i AS i, b.j AS j, SUM(a.v * b.v) AS v " +
      "FROM A a JOIN B b ON a.j = b.i GROUP BY a.i, b.j"
    val sumMmm: String =
      "SELECT SUM(a.v * b.v) AS v FROM A a JOIN B b ON a.j = b.i"
    def batax(beta: Double): String =
      s"SELECT a1.j AS j, SUM($beta * a1.v * a2.v * x.v) AS v " +
      "FROM A a1 JOIN A a2 ON a1.i = a2.i JOIN X x ON a2.j = x.i GROUP BY a1.j"
    val ttm: String =
      "SELECT a.i AS i, a.j AS j, b.i AS k, SUM(a.v * b.v) AS v " +
      "FROM A3 a JOIN B b ON a.k = b.j GROUP BY a.i, a.j, b.i"
    val mttkrp: String =
      "SELECT a.i AS i, b.j AS j, SUM(a.v * b.v * c.v) AS v " +
      "FROM A3 a JOIN B b ON a.j = b.i " +
      "JOIN C c ON a.k = c.i AND b.j = c.j GROUP BY a.i, b.j"
  }
}
