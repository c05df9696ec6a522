package repro.exec

import java.lang.management.ManagementFactory
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.meas.Table3

/** A boxing regression in the compiled engine shows up as a byte count:
  * a scalar plan must run without allocating per element, and a sum that
  * merges entries under one key must not copy the entry per insert. */
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

  // sum(<i,_> in 0:n) {0 -> {i -> 1}}: n entries merge under one key
  private def underOneKey(n: Int, phys: Phys) =
    Sum(Rng(Num(0), Num(n)), Dict(Num(0), Dict(Vr(1), Num(1)), phys = phys))

  test("entries merged under one key are not copied on every insert") {
    val n = 2000
    val expected = Value.fromCoo((0 until n).map(i => (Seq(0L, i.toLong), 1.0)))
    Seq(Phys.PHash, Phys.PDense).foreach { phys =>
      val e = underOneKey(n, phys)
      Interp.run(underOneKey(4, phys), Map.empty) // load and link the classes
      val (r, bytes) = allocatedBytes(Interp.run(e, Map.empty))
      assert(Value.deepEq(r, expected), phys)
      // a merged entry gets the representation `Value.add` gives it
      assert(Value.asDict(r).get(0).isInstanceOf[VHashN], phys)
      info(s"$phys: $bytes bytes allocated")
      assert(bytes <= 1024 * 1024, s"$phys: $bytes bytes allocated")
    }
  }

  test("a merged entry whose inserts cancel drops out") {
    // sum(<i,_> in 0:3) {(i idiv 2) -> {0 -> 1 - 2 * (i % 2)}}: key 0
    // gets +1 and -1, key 1 gets +1
    def e(phys: Phys) = Sum(Rng(Num(0), Num(3)),
      Dict(Bin(BinOp.IDiv, Vr(1), Num(2)),
        Dict(Num(0), Bin(BinOp.Sub, Num(1), Bin(BinOp.Mul, Num(2), Bin(BinOp.Mod, Vr(1), Num(2))))),
        phys = phys))
    Seq(Phys.PHash, Phys.PDense).foreach { phys =>
      val r = Interp.run(e(phys), Map.empty)
      assert(Value.deepEq(r, Value.fromCoo(Seq((Seq(1L, 0L), 1.0)))), phys)
      assert(Value.asDict(r).get(0) == VZero, phys)
      // every entry cancels
      val all = Sum(Rng(Num(0), Num(2)), Dict(Num(0),
        Dict(Num(0), Bin(BinOp.Sub, Num(1), Bin(BinOp.Mul, Num(2), Vr(1)))), phys = phys))
      assert(Interp.run(all, Map.empty) == VZero, phys)
    }
  }
}
