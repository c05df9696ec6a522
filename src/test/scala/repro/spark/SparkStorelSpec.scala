package repro.spark

import repro.SparkSpec
import repro.core.Expr
import repro.exec.Value
import repro.kernels.Kernels
import repro.relational.RelKernels
import repro.storage.CooMat

/** Distributed STOREL: per-partition CSR construction at executor level
  * with the broadcast optimized plan. Its result must `deepEq` the
  * single-node reference. */
class SparkStorelSpec extends SparkSpec {

  private lazy val a = CooMat.random(120, 90, 900, seed = 31)
  private lazy val x = Array.tabulate(90)(i => 0.2 + (i % 5) * 0.1)
  private val beta = 1.75

  private lazy val coo = RelKernels.dataFrame(spark, RelKernels.matrix(a))

  private def run(partitions: Int, plan: Option[Expr] = None): Value =
    Value.fromCoo(RelKernels.rows(
      SparkStorel.bataxDistributed(spark, coo, x, beta, partitions, plan)))

  test("distributed BATAX matches the single-node reference") {
    assert(Value.deepEq(run(6), Kernels.refBatax(beta, a, x)))
  }

  test("distributed BATAX is partition-count invariant") {
    val plan = Some(SparkStorel.bataxPlan(avgSeg = 8, rowsPerPartition = 40, nCols = 90))
    assert(Value.deepEq(run(2, plan), run(8, plan)))
  }

  test("the symbolic per-partition plan is itself optimized (no naive shape)") {
    val plan = SparkStorel.bataxPlan(avgSeg = 8, rowsPerPartition = 50, nCols = 90)
    // the optimized plan must be storage-fused: it reads the physical
    // arrays directly rather than materializing the logical tensor first
    val syms = Expr.syms(plan)
    assert(syms.contains("A_idx2") && syms.contains("A_val"))
    assert(!syms.contains("A"), "logical tensor symbol should be composed away")
  }
}
