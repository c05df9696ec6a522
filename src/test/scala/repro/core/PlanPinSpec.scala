package repro.core

import java.nio.charset.StandardCharsets
import org.scalatest.funsuite.AnyFunSuite
import repro.egraph.SatConfig
import repro.meas.Table3
import repro.storage.CooMat

/** Pins the plans of the benchmark's `compile-table4` and `exec-scaled`
  * workloads (seed 101) by the benchmark's plan hash: the first 6 bytes
  * of the SHA-256 of `plan.toString`, in hex. A change that alters a plan
  * on purpose updates the pin and names the old and new hashes. No pinned
  * plan may compute a loop-invariant loop inside its loop. */
class PlanPinSpec extends AnyFunSuite {

  import PlanPinSpec.hash

  private def plans(ps: Seq[Table3.Program], cfg: Optimizer.Config): Seq[(String, String)] =
    ps.map { p =>
      val plan = Optimizer.optimize(p.tp, p.storages, p.extraCards, cfg).plan
      assert(HoistSpec.invariantLoops(plan).isEmpty, s"${p.kernel}/${p.format}\n${Expr.pretty(plan)}")
      s"${p.kernel}/${p.format}" -> hash(plan)
    }

  test("compile-table4: Table 4's programs under a 1,500-node budget") {
    val sat = SatConfig(maxIters = 20, maxNodes = 1500, timeoutMs = 60000)
    val got = plans(Table3.table4(Table3.defaultWorkload(101)),
      Optimizer.Config(stage1 = sat, stage2 = sat))
    assert(got == Seq(
      "BATAX/CSR,Dense" -> "986bb6b3d7f4",
      "SumMMM/CSC,CSR" -> "20993da778f6",
      "MTTKRP/CSF,CSR,CSC" -> "77c533e68cb5",
      "MMM/CSR,CSR" -> "fc3b92091e88",
      "TTM/CSF,CSC" -> "e549996bdb65"))
  }

  test("exec-scaled: MMM and SumMMM on 1200x1200 operands") {
    val w = Table3.defaultWorkload(101).copy(
      a = CooMat.random(1200, 1200, 14400, 101), b = CooMat.random(1200, 1000, 37500, 102))
    val got = plans(Seq("MMM" -> "CSR,CSR", "MMM" -> "DCSR,DCSR", "SumMMM" -> "CSC,CSR",
      "SumMMM" -> "Dense,Dense").map { case (k, f) => Table3.program(w, k, f) },
      Optimizer.Config())
    assert(got == Seq(
      "MMM/CSR,CSR" -> "858891de88c8",
      "MMM/DCSR,DCSR" -> "76601f616f1c",
      "SumMMM/CSC,CSR" -> "70df25948e58",
      "SumMMM/Dense,Dense" -> "4de876d666e4"))
  }
}

object PlanPinSpec {
  /** The benchmark's plan hash. */
  def hash(e: Expr): String =
    java.security.MessageDigest.getInstance("SHA-256")
      .digest(e.toString.getBytes(StandardCharsets.UTF_8))
      .take(6).map(b => f"${b & 0xff}%02x").mkString
}
