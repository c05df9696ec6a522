package repro.exec

import java.lang.management.ManagementFactory
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Optimizer
import repro.meas.Table3

/** A boxing regression in the compiled engine shows up as a byte count:
  * a scalar plan must run without allocating per element. */
class InterpAllocSpec extends AnyFunSuite {

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private def allocatedBytes[T](f: => T): (T, Long) = {
    val id = Thread.currentThread.getId
    val before = threads.getThreadAllocatedBytes(id)
    val r = f
    (r, threads.getThreadAllocatedBytes(id) - before)
  }

  test("SumMMM/Dense,Dense at the Table 3 workload allocates at most 64 KB per run") {
    val p = Table3.program(Table3.defaultWorkload(), "SumMMM", "Dense,Dense")
    val plan = Optimizer.optimize(p.tp, p.storages, p.extraCards).plan
    val symtab = p.symtab
    // the first runs load classes and link the closures
    (1 to 3).foreach(_ => Interp.run(plan, symtab))
    val (r, bytes) = allocatedBytes(Interp.run(plan, symtab))
    assert(Value.deepEq(r, p.reference))
    info(s"$bytes bytes allocated")
    assert(bytes <= 64 * 1024, s"$bytes bytes allocated by\n${repro.core.Expr.pretty(plan)}")
  }
}
