package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.exec._
import repro.kernels.Kernels
import repro.storage.{Formats, Storage}

/** Distributed STOREL execution: the reproduction hint's "per-partition
  * tensor storage format chosen at executor level".
  *
  * BATAX is row-decomposable: Q(j) = Σ_i β·A(i,j)·(Σ_k A(i,k)·X(k)).
  * The COO relation is hash-partitioned by row; the driver optimizes the
  * kernel ONCE against a *symbolic* CSR storage mapping (the row count
  * is the scalar symbol `A_nrows` instead of a literal), and every
  * partition builds its local CSR arrays inside `mapPartitions`, runs
  * the broadcast optimized plan with the single-node engine, and emits
  * partial (j, v) pairs that a final groupBy-sum combines.
  */
object SparkStorel {

  /** The CSR storage of the per-partition rows of A, bounded by the
    * scalar symbol `A_nrows` instead of a literal row count. */
  private def partitionCsr(rows: Array[Long], cols: Array[Long], vals: Array[Double],
                           nrows: Int): Storage =
    Formats.compressedLevels("A", "CSR", Seq(rows, cols), vals,
      Some(Formats.DenseTop(nrows, Some("A_nrows"))))

  /** Symbolic CSR storage mapping: the partitions' TSM with estimated
    * cards and no materialized symbols (those exist only inside each
    * partition). */
  private def symbolicCsr(avgSeg: Double, rows: Double): Storage =
    Storage("A", "CSR", Map.empty, partitionCsr(Array.empty, Array.empty, Array.empty, 0).tsm,
      Card.of(1.0, (rows, true), (avgSeg, false)),
      Map(
        "A_nrows" -> Card.scalar,
        "A_pos2" -> Card.vec(rows + 1),
        "A_idx2" -> Card.vec(rows * avgSeg),
        "A_val" -> Card.vec(rows * avgSeg)),
      avgSeg)

  private def symbolicVec(n: Double): Storage =
    Storage("X", "Dense", Map.empty, Sym("X_V"), Card.vec(n),
      Map("X_V" -> Card.vec(n)), 1.0)

  /** Optimize the BATAX plan once for the symbolic per-partition CSR. */
  def bataxPlan(avgSeg: Double, rowsPerPartition: Double, nCols: Double,
                cfg: Optimizer.Config = Optimizer.Config()): Expr =
    Optimizer.optimize(Kernels.batax,
      Seq(symbolicCsr(avgSeg, rowsPerPartition), symbolicVec(nCols)),
      Map("beta" -> Card.scalar), cfg).plan

  /** Distributed BATAX over a COO relation (i, j, v). */
  def bataxDistributed(spark: SparkSession, coo: DataFrame, x: Array[Double],
                       beta: Double, partitions: Int = 8,
                       plan: Option[Expr] = None): DataFrame = {
    import spark.implicits._
    val nnz = coo.count().toDouble
    val rows = math.max(1.0, coo.select("i").distinct().count().toDouble)
    val thePlan = plan.getOrElse(
      bataxPlan(math.max(1.0, nnz / rows), rows / partitions, x.length.toDouble))
    val bx = spark.sparkContext.broadcast(x)
    val bPlan = spark.sparkContext.broadcast(thePlan)

    val partials = coo.repartition(partitions, col("i"))
      .as[(Long, Long, Double)]
      .mapPartitions { it =>
        val entries = it.toArray
        if (entries.isEmpty) Iterator.empty
        else {
          // executor-level storage-format choice: build a local CSR with
          // re-indexed rows (BATAX sums over i, so local ids are fine)
          val rowIds = entries.map(_._1).distinct.sorted
          val rowOf = rowIds.zipWithIndex.toMap
          val local = entries.map { case (i, j, v) => (rowOf(i).toLong, j, v) }
            .sortBy(e => (e._1, e._2))
          val csr = partitionCsr(local.map(_._1), local.map(_._2), local.map(_._3), rowIds.length)
          val symtab = csr.symbols ++ Map[String, Value](
            "X_V" -> new VDenseN(bx.value),
            "beta" -> VNum(beta))
          val result = Interp.run(bPlan.value, symtab)
          Value.toCoo(result).iterator.map { case (ks, v) => (ks.head, v) }
        }
      }
      .toDF("j", "v")

    partials.groupBy("j").agg(sum("v").as("v"))
  }
}
