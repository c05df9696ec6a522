package repro.meas

import org.scalatest.funsuite.AnyFunSuite

/** The evaluation grid that Table 3, Table 4 and the optimizer tests read. */
class Table3Spec extends AnyFunSuite {

  private val w = Table3.defaultWorkload()

  test("every STOREL and TacoLike paper format is one of the catalog's candidates") {
    val grid = Table3.programs(w).map(p => (p.kernel, p.format)).toSet
    val engine = Table3.paperFormats.toSeq.collect {
      case ((k, s), f) if s == "STOREL" || s == "TacoLike" => (k, f)
    }
    assert(engine.size == 10)
    engine.foreach(kf => assert(grid(kf), s"$kf is not a Table 3 candidate"))
  }

  test("Table 4 compiles STOREL's paper pick of each kernel, in Table 4's order") {
    assert(Table3.programs(w).size == 17)
    assert(Table3.table4(w).map(p => s"${p.kernel}/${p.format}") == Seq("BATAX/CSR,Dense",
      "SumMMM/CSC,CSR", "MTTKRP/CSF,CSR,CSC", "MMM/CSR,CSR", "TTM/CSF,CSC"))
  }

  test("a vector or rank-3 operand has only its one format") {
    intercept[IllegalArgumentException](Table3.program(w, "BATAX", "CSR,CSR"))
    intercept[IllegalArgumentException](Table3.program(w, "TTM", "CSR,CSR"))
  }
}
