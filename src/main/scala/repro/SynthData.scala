package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic OLAP data at a configurable scale factor.
  *
  * SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
  * benchmarks use SF~=0.1. Generators are deterministic in (sf, seed) so
  * the DuckDB oracle sees identical input.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    import spark.implicits._
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    spark.range(n(NLineitemPerSf, sf)).select(
      (rand(seed)     * nOrders + 1).cast(LongType)    as "l_orderkey",
      (rand(seed + 1) * nPart   + 1).cast(LongType)    as "l_partkey",
      (rand(seed + 2) * 7 + 1).cast(IntegerType)       as "l_linenumber",
      (rand(seed + 3) * 50 + 1).cast(DoubleType)       as "l_quantity",
      round(rand(seed + 4) * 90000 + 900, 2)           as "l_extendedprice",
      round(rand(seed + 5) * 0.10, 2)                  as "l_discount",
      round(rand(seed + 6) * 0.08, 2)                  as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
                 (rand(seed + 7) * 3 + 1).cast("int")) as "l_returnflag",
      element_at(array(lit("O"), lit("F")),
                 (rand(seed + 8) * 2 + 1).cast("int")) as "l_linestatus",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 9) * 2557).cast("int"))    as "l_shipdate",
    )
  }

  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 1): DataFrame = {
    import spark.implicits._
    val nCust = n(NCustomerPerSf, sf)
    spark.range(1, n(NOrdersPerSf, sf) + 1).toDF("o_orderkey").select(
      $"o_orderkey",
      (rand(seed)     * nCust + 1).cast(LongType)             as "o_custkey",
      element_at(array(lit("O"), lit("F"), lit("P")),
                 (rand(seed + 1) * 3 + 1).cast("int"))         as "o_orderstatus",
      round(rand(seed + 2) * 500000 + 1000, 2)                 as "o_totalprice",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 3) * 2406).cast("int"))            as "o_orderdate",
    )
  }

  def customer(spark: SparkSession, sf: Double = 0.01, seed: Long = 2): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NCustomerPerSf, sf) + 1).toDF("c_custkey").select(
      $"c_custkey",
      (rand(seed) * 25).cast(IntegerType)                as "c_nationkey",
      round(rand(seed + 1) * 10000 - 1000, 2)            as "c_acctbal",
      element_at(array(lit("BUILDING"), lit("AUTOMOBILE"), lit("MACHINERY"),
                       lit("HOUSEHOLD"), lit("FURNITURE")),
                 (rand(seed + 2) * 5 + 1).cast("int"))   as "c_mktsegment",
    )
  }

  def part(spark: SparkSession, sf: Double = 0.01, seed: Long = 5): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NPartPerSf, sf) + 1).toDF("p_partkey").select(
      $"p_partkey",
      element_at(array(lit("STANDARD"), lit("SMALL"), lit("MEDIUM"),
                       lit("LARGE"), lit("ECONOMY"), lit("PROMO")),
                 (rand(seed) * 6 + 1).cast("int"))              as "p_type",
      (rand(seed + 1) * 50 + 1).cast(IntegerType)               as "p_size",
      round(lit(900.0) + ($"p_partkey" % 1000) / 10.0, 2)       as "p_retailprice",
    )
  }

  /** Skewed key column — for join-skew / cardinality-estimation papers. */
  def zipfKeys(spark: SparkSession, rows: Long, nKeys: Long,
               alpha: Double = 1.1, seed: Long = 3): DataFrame = {
    import spark.implicits._
    // Inverse-CDF draw over rank weights 1/k^alpha; good enough for skew.
    val norm = (1L to math.min(nKeys, 10000L)).map(k => 1.0 / math.pow(k.toDouble, alpha)).sum
    spark.range(rows).select(
      least(lit(nKeys),
            greatest(lit(1L),
              pow(lit(1.0) / (rand(seed) * norm + 1e-9), lit(1.0 / alpha)).cast(LongType)
            )) as "k",
      rand(seed + 1) as "v",
    )
  }

  def uniformKeys(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 4): DataFrame = {
    import spark.implicits._
    spark.range(rows).select(
      (rand(seed) * nKeys + 1).cast(LongType) as "k",
      rand(seed + 1)                          as "v",
    )
  }

  // ---- sparse tensors for the STOREL reproduction --------------------------

  /** Sparse matrix as a COO relation (i, j, v) with ~`nnz` distinct
    * coordinates, deterministic in the seed. */
  def sparseMatrix(spark: SparkSession, m: Long, n: Long, nnz: Long,
                   seed: Long = 7): DataFrame = {
    import spark.implicits._
    spark.range((nnz * 1.25).toLong + 8).select(
      (rand(seed)     * m).cast(LongType) as "i",
      (rand(seed + 1) * n).cast(LongType) as "j",
      (rand(seed + 2) * 2 - 1)            as "v",
    ).dropDuplicates("i", "j").limit(nnz.toInt)
  }

  /** Sparse rank-3 tensor as a COO relation (i, j, k, v). */
  def sparseTensor3(spark: SparkSession, d1: Long, d2: Long, d3: Long,
                    nnz: Long, seed: Long = 8): DataFrame = {
    import spark.implicits._
    spark.range((nnz * 1.25).toLong + 8).select(
      (rand(seed)     * d1).cast(LongType) as "i",
      (rand(seed + 1) * d2).cast(LongType) as "j",
      (rand(seed + 2) * d3).cast(LongType) as "k",
      (rand(seed + 3) * 2 - 1)             as "v",
    ).dropDuplicates("i", "j", "k").limit(nnz.toInt)
  }

  /** One Table-2 dataset stand-in: the paper's dims/nnz and the scaled
    * dims/nnz we generate (density preserved; see DESIGN.md). */
  final case class Table2Row(
      name: String, kind: String,
      paperDims: Seq[Long], paperNnz: Long,
      scale: Int) {
    def dims: Seq[Long] = paperDims.map(d => math.max(4L, d / scale))
    def paperDensity: Double =
      paperNnz.toDouble / paperDims.map(_.toDouble).product
    def nnz: Long =
      math.max(16L, math.round(paperDensity * dims.map(_.toDouble).product))
  }

  /** The ten datasets of Table 2 (six SuiteSparse matrices, four FROSTT
    * rank-3 tensors), with linear scale factors chosen so the bench
    * finishes on one node: matrices 1/4 linear, tensors 1/8. */
  val table2: Seq[Table2Row] = Seq(
    Table2Row("cant",     "matrix", Seq(62000L, 62000L),        2030000L,  4),
    Table2Row("consph",   "matrix", Seq(83000L, 83000L),        3050000L,  4),
    Table2Row("cop20k_A", "matrix", Seq(121000L, 121000L),      1360000L,  4),
    Table2Row("pdb1HYS",  "matrix", Seq(36000L, 36000L),        2190000L,  4),
    Table2Row("rma10",    "matrix", Seq(46000L, 46000L),        2370000L,  4),
    Table2Row("webbase",  "matrix", Seq(1000000L, 1000000L),    3110000L,  4),
    Table2Row("NIPS",     "tensor", Seq(2400L, 2800L, 14000L),  31310000L, 8),
    Table2Row("NELL",     "tensor", Seq(12000L, 9200L, 29000L), 76880000L, 8),
    Table2Row("Facebook", "tensor", Seq(1600L, 64000L, 64000L),   740000L, 8),
    Table2Row("Enron",    "tensor", Seq(6000L, 5700L, 244000L),  3100000L, 8),
  )
}
