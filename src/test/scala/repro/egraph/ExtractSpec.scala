package repro.egraph

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.meas.Table3
import scala.collection.mutable

/** The contract of extraction: representatives, cycles, unbound
  * variables, the free-variable table, and cost-based extraction of deep
  * terms. */
class ExtractSpec extends AnyFunSuite {

  private def add(a: Expr, b: Expr): Expr = Bin(BinOp.Add, a, b)

  test("representatives taken before a union give the same answers after it") {
    val eg = new EGraph
    val big = eg.addExpr(add(Bin(BinOp.Mul, Sym("a"), Num(1)), Num(0)))
    val small = eg.addExpr(Sym("a"))
    val ids = eg.classIds
    val before = ids.map(Extract.representatives(eg, ids))
    // taken before the union, asked only after it
    val repr = Extract.representatives(eg, ids)
    eg.union(big, small)
    eg.rebuild()
    assert(ids.map(repr) == before)
    assert(repr(big).contains(add(Bin(BinOp.Mul, Sym("a"), Num(1)), Num(0))))
    // taken after the union, the merged class gets the smaller term
    assert(Extract.representatives(eg, eg.classIds)(eg.find(big)).contains(Sym("a")))
  }

  test("a class with one cyclic and one finite node gets the finite one") {
    val eg = new EGraph
    val a = eg.addExpr(Sym("a"))
    val plus = eg.add(ENode(Op.Bin(BinOp.Add), Vector(a, eg.addExpr(Num(1)))))
    eg.union(a, plus) // a = a + 1: the class now holds `a` and a node on itself
    eg.rebuild()
    val cls = eg.find(a)
    assert(eg.nodes(cls).exists(_.children.contains(cls)))
    assert(Extract.representatives(eg, eg.classIds)(cls).contains(Sym("a")))
    val cm = new CostModel(Stats(Map("a" -> Card.scalar)))
    assert(cm.extract(eg, cls) == ((Sym("a"), 0.0)))
  }

  test("a class whose only node is cyclic has no representative") {
    val eg = new EGraph
    val one = eg.addExpr(Num(1))
    val loop = eg.addExpr(add(Sym("a"), Num(1)))
    // `add` and `union` always leave a class a finite term, so the class
    // table is written directly: the class's only node is loop + 1
    eg.setNodes(loop, Seq(ENode(Op.Bin(BinOp.Add), Vector(loop, one))))
    val repr = Extract.representatives(eg, eg.classIds)
    assert(repr(loop).isEmpty && repr(one).contains(Num(1)))
    val ctx = new RuleCtx(eg, repr)
    assert(ctx.repr(one) == Num(1))
    intercept[IllegalStateException](ctx.repr(loop))
    val cm = new CostModel(Stats(Map("a" -> Card.scalar)))
    intercept[IllegalStateException](cm.extract(eg, loop))
  }

  test("costing a variable that no binder binds throws") {
    val cm = new CostModel(Stats(Map.empty))
    intercept[IllegalStateException](cm.analyze(Vr(0)))
    assert(cm.analyze(Vr(0), List(Card.scalar)) == ((Card.scalar, 0.0)))
  }

  test("a class shared across binder depths extracts where its variable is unbound") {
    // L2a (a*0 → 0) unions `v0 * 0`, read inside the sum, into the class of
    // the literal 0, which the root's `0 + …` reaches with no variable bound
    val e = add(Num(0), Sum(Sym("A"), Bin(BinOp.Mul, Vr(0), Num(0))))
    val eg = new EGraph
    val root = eg.addExpr(e)
    Saturate.run(eg, Rules.logical, SatConfig(maxIters = 4))
    val zero = eg.find(eg.addExpr(Num(0)))
    assert(eg.nodes(zero).exists(n => n.op == Op.Bin(BinOp.Mul) &&
      eg.nodes(n.children(0)).exists(_.op == Op.Var(0))))
    val cm = new CostModel(Stats(Map("A" -> Card.vec(10, dense = false))))
    val (plan, cost) = cm.extract(eg, root)
    assert(cm.analyze(plan)._2 == cost && cost <= cm.analyze(e)._2)
  }

  test("cost extraction returns a chain of 250 nested + whole") {
    val chain = (1 to 250).foldRight(Sym("s"): Expr)((i, e) => add(Num(i), e))
    val eg = new EGraph
    val root = eg.addExpr(chain)
    val cm = new CostModel(Stats(Map("s" -> Card.scalar)))
    assert(cm.extract(eg, root) == ((chain, 250.0)))
  }

  /** The free-variable table of classes `ids` as a fixpoint over sets of
    * indices: the reference [[FreeVars]] is checked against. */
  private def freeVarSets(ids: Seq[Int], nodesOf: Array[Vector[ENode]]): Map[Int, Set[Int]] = {
    val table = mutable.HashMap.empty[Int, Set[Int]]
    var changed = true
    while (changed) {
      changed = false
      ids.foreach { cid =>
        var s = table.getOrElse(cid, Set.empty)
        nodesOf(cid).foreach { n =>
          n.op match {
            case Op.Var(i) => s = s + i
            case op =>
              n.children.indices.foreach { i =>
                s = s ++ table.getOrElse(n.children(i), Set.empty)
                  .map(_ - op.binds(i)).filter(_ >= 0)
              }
          }
        }
        if (s != table.getOrElse(cid, Set.empty)) {
          table(cid) = s; changed = true
        }
      }
    }
    table.toMap
  }

  /** Every class's canonicalized distinct nodes, indexed by class id, as
    * extraction reads them. */
  private def nodesOf(eg: EGraph): Array[Vector[ENode]] = {
    val table = new Array[Vector[ENode]](eg.idBound)
    eg.classIds.foreach { cid =>
      table(cid) = eg.nodes(cid).iterator.map(eg.canonicalize).toVector.distinct
    }
    table
  }

  private def freeVars(eg: EGraph): FreeVars = FreeVars(eg.classIds, nodesOf(eg))

  /** [[FreeVars]] selects, for every class, the entries at the oracle's
    * indices, in order; some class has one. */
  private def assertOracleFreeVars(eg: EGraph): Unit = {
    val ids = eg.classIds
    val oracle = freeVarSets(ids, nodesOf(eg))
    val fv = freeVars(eg)
    val env = List.range(0, 1000)
    val indices = ids.flatMap(oracle.getOrElse(_, Set.empty))
    assert(indices.nonEmpty && indices.forall(_ < env.length))
    ids.foreach { cls =>
      assert(fv.select(cls, env) == oracle.getOrElse(cls, Set.empty).toList.sorted, s"class $cls")
    }
  }

  test("free-variable bits agree with the set fixpoint on two stage-2 e-graphs") {
    val w = Table3.defaultWorkload()
    val cfg = Optimizer.Config()
    Seq("SumMMM" -> "CSC,CSR", "MMM" -> "CSR,CSR").foreach { case (kernel, format) =>
      val p = Table3.program(w, kernel, format)
      val (tp1, _, _) = Optimizer.saturateRounds(p.tp, Rules.logical,
        Optimizer.logicalStats(p.storages, p.extraCards), cfg.stage1, cfg.rounds1, cfg.params)
      val stats = Optimizer.physicalStats(p.storages, p.extraCards)
      val eg = new EGraph
      eg.addExpr(Optimizer.compose(tp1, p.storages))
      Saturate.run(eg, Rules.physicalStage, cfg.stage2, n => stats.card(n).isScalar)
      assert(eg.nodeCount > 100, s"$kernel/$format")
      assertOracleFreeVars(eg)
    }
    // and a class that is its own child under a binder, x = v0 + v7 =
    // sum(<k,v> in c) x, whose set is read and written in one update:
    // each pass through the sum moves 7 down to 5, 3 and 1
    val eg = new EGraph
    val x = eg.addExpr(add(Vr(0), Vr(7)))
    eg.union(x, eg.add(ENode(Op.Sum, Vector(eg.addExpr(Sym("c")), x))))
    eg.rebuild()
    val cls = eg.find(x)
    assert(eg.nodes(cls).exists(_.children.contains(cls)))
    assertOracleFreeVars(eg)
    assert(freeVars(eg).select(cls, List.range(0, 10)) == List(0, 1, 3, 5, 7))
  }

  test("free-variable bits cross the 64-bit word boundary") {
    // 40 nested sums bind 80 variables; the body reads indices on both
    // sides of 64, and four that are still free outside every sum
    val reads = Seq(0, 1, 62, 63, 64, 65, 79, 80, 85, 143, 150)
    val term = (1 to 40).foldLeft(reads.map(i => Vr(i): Expr).reduceLeft(add))(
      (e, _) => Sum(Sym("A"), e))
    val eg = new EGraph
    val root = eg.addExpr(term)
    assertOracleFreeVars(eg)
    val fv = freeVars(eg)
    assert(fv.select(root, List.range(0, 100)) == List(0, 5, 63, 70))
    // an environment shorter than the free indices selects those it holds
    assert(fv.select(root, List.range(0, 64)) == List(0, 5, 63))
    val body = eg.find(eg.addExpr(reads.map(i => Vr(i): Expr).reduceLeft(add)))
    assert(fv.select(body, List.range(0, 200)) == reads)
  }
}
