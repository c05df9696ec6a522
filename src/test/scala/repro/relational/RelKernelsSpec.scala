package repro.relational

import repro.SparkSpec
import repro.core.OptimizerSpec
import repro.exec.Value
import repro.kernels.Kernels
import repro.meas.Table3

/** Each kernel's one SQL statement, run by DuckDB and by Spark SQL over
  * the same COO relations, must equal the kernel's reference tensor. */
class RelKernelsSpec extends SparkSpec {

  private val w = OptimizerSpec.smallWorkload
  private val queries = RelKernels.Sql.byKernel(w.beta)
  private lazy val relations = RelKernels.relations(w)
  private lazy val db = { val d = DuckKernels.open(); d.load(relations); d }
  private lazy val views = RelKernels.register(spark, relations)

  override def afterAll(): Unit = { db.close(); super.afterAll() }

  test("every kernel has one SQL statement, and every statement a kernel") {
    assert(queries.keySet == Kernels.all.keySet)
  }

  Kernels.all.keys.toSeq.sorted.foreach { k =>
    lazy val reference = Table3.programs(w).find(_.kernel == k).get.reference
    test(s"$k on DuckDB equals the reference") {
      assert(Value.deepEq(Value.fromCoo(db.query(queries(k))), reference))
    }
    test(s"$k on Spark SQL equals the reference") {
      views
      assert(Value.deepEq(Value.fromCoo(RelKernels.rows(spark.sql(queries(k)))), reference))
    }
  }
}
