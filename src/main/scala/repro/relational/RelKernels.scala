package repro.relational

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}
import repro.meas.Table3
import repro.storage.{CooMat, Coo3}
import scala.jdk.CollectionConverters._

/** The relational baseline of Sec. 6: tensors as COO relations, each
  * kernel as one aggregate-join SQL statement (`Sql.byKernel`). DuckDB
  * (`DuckKernels`) and Spark SQL run the same text over the same
  * relations. Both pick binary join plans and neither pushes the sum past
  * a join, which is the behavior Sec. 6.1 attributes to DuckDB on
  * ΣMMM/BATAX/MTTKRP.
  */
object RelKernels {

  /** A tensor as a relation: one BIGINT key column per dimension, named
    * `i`, `j`, `k` in order, then the DOUBLE value column `v`. Rows are
    * (key columns, value), the shape `Value.fromCoo` reads. */
  final case class Relation(rank: Int, rows: Seq[(Vector[Long], Double)]) {
    def keys: Seq[String] = Seq("i", "j", "k").take(rank)
  }

  def matrix(m: CooMat): Relation =
    Relation(2, m.entries.toSeq.map { case (i, j, v) => (Vector(i.toLong, j.toLong), v) })

  def tensor(t: Coo3): Relation =
    Relation(3, t.entries.toSeq.map { case (i, j, k, v) => (Vector(i.toLong, j.toLong, k.toLong), v) })

  /** A dense vector, every index a row (zeros too). */
  def vector(x: Array[Double]): Relation =
    Relation(1, x.toSeq.zipWithIndex.map { case (v, i) => (Vector(i.toLong), v) })

  /** Every operand of `w`, under the name its kernels' SQL reads. TTM's B
    * is `BT` and MTTKRP's B is `BM`, so each operand has its own table. */
  def relations(w: Table3.Workload): Map[String, Relation] = Map(
    "A" -> matrix(w.a), "B" -> matrix(w.b), "X" -> vector(w.x), "A3" -> tensor(w.a3),
    "BT" -> matrix(w.bTtm), "BM" -> matrix(w.bMk), "C" -> matrix(w.cMk))

  /** The one SQL statement of each kernel, keyed as `Kernels.all`. Rank-3
    * columns (i, j, k) stand for the kernel's own index names: TTM's A
    * holds (i, j, l) and BT (k, l); MTTKRP's A holds (i, k, l), BM (k, j)
    * and C (l, j). */
  object Sql {
    def byKernel(beta: Double): Map[String, String] = Map(
      "MMM" ->
        ("SELECT a.i AS i, b.j AS j, SUM(a.v * b.v) AS v " +
         "FROM A a JOIN B b ON a.j = b.i GROUP BY a.i, b.j"),
      "SumMMM" ->
        "SELECT SUM(a.v * b.v) AS v FROM A a JOIN B b ON a.j = b.i",
      "BATAX" ->
        (s"SELECT a1.j AS j, SUM($beta * a1.v * a2.v * x.v) AS v " +
         "FROM A a1 JOIN A a2 ON a1.i = a2.i JOIN X x ON a2.j = x.i GROUP BY a1.j"),
      "TTM" ->
        ("SELECT a.i AS i, a.j AS j, b.i AS k, SUM(a.v * b.v) AS v " +
         "FROM A3 a JOIN BT b ON a.k = b.j GROUP BY a.i, a.j, b.i"),
      "MTTKRP" ->
        ("SELECT a.i AS i, b.j AS j, SUM(a.v * b.v * c.v) AS v " +
         "FROM A3 a JOIN BM b ON a.j = b.i " +
         "JOIN C c ON a.k = c.i AND b.j = c.j GROUP BY a.i, b.j"))
  }

  // ---- Spark SQL -------------------------------------------------------------

  def dataFrame(spark: SparkSession, r: Relation): DataFrame = {
    val schema = StructType(r.keys.map(StructField(_, LongType, nullable = false)) :+
      StructField("v", DoubleType, nullable = false))
    spark.createDataFrame(r.rows.map { case (ks, v) => Row.fromSeq(ks :+ v) }.asJava, schema)
  }

  /** Register each relation as a cached, materialized temp view, so that
    * a query's time excludes loading, as DuckDB's does. */
  def register(spark: SparkSession, relations: Map[String, Relation]): Unit =
    relations.foreach { case (name, r) =>
      val df = dataFrame(spark, r).cache()
      df.count()
      df.createOrReplaceTempView(name)
    }

  /** Collect `df`'s rows as `DuckKernels.Db.query` fetches them: the last
    * column is the value, every other one a key. An empty `SUM` is 0. */
  def rows(df: DataFrame): Vector[(Vector[Long], Double)] =
    df.collect().iterator.map { r =>
      val v = r.length - 1
      (Vector.tabulate(v)(r.getLong), if (r.isNullAt(v)) 0.0 else r.getDouble(v))
    }.toVector
}
