package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic sparse tensors for the Table 2 dataset stand-ins, generated
  * with Spark as COO relations, deterministic in the seed.
  */
object SynthData {

  /** Sparse matrix as a COO relation (i, j, v) with ~`nnz` distinct
    * coordinates, deterministic in the seed. */
  def sparseMatrix(spark: SparkSession, m: Long, n: Long, nnz: Long,
                   seed: Long = 7): DataFrame = {
    spark.range((nnz * 1.25).toLong + 8).select(
      (rand(seed)     * m).cast(LongType) as "i",
      (rand(seed + 1) * n).cast(LongType) as "j",
      (rand(seed + 2) * 2 - 1)            as "v",
    ).dropDuplicates("i", "j").limit(nnz.toInt)
  }

  /** Sparse rank-3 tensor as a COO relation (i, j, k, v). */
  def sparseTensor3(spark: SparkSession, d1: Long, d2: Long, d3: Long,
                    nnz: Long, seed: Long = 8): DataFrame = {
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
