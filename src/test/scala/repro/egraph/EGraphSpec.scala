package repro.egraph

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class EGraphSpec extends AnyFunSuite {

  test("hash-consing deduplicates identical nodes") {
    val eg = new EGraph
    val a = eg.addExpr(Bin(BinOp.Mul, Sym("a"), Sym("b")))
    val b = eg.addExpr(Bin(BinOp.Mul, Sym("a"), Sym("b")))
    assert(eg.find(a) == eg.find(b))
  }

  test("distinct expressions get distinct classes") {
    val eg = new EGraph
    val a = eg.addExpr(Sym("a"))
    val b = eg.addExpr(Sym("b"))
    assert(eg.find(a) != eg.find(b))
  }

  test("union merges classes") {
    val eg = new EGraph
    val a = eg.addExpr(Sym("a"))
    val b = eg.addExpr(Sym("b"))
    eg.union(a, b)
    assert(eg.find(a) == eg.find(b))
  }

  test("congruence: f(a) = f(b) after a = b") {
    val eg = new EGraph
    val fa = eg.addExpr(Get(Sym("f"), Sym("a")))
    val fb = eg.addExpr(Get(Sym("f"), Sym("b")))
    assert(eg.find(fa) != eg.find(fb))
    eg.union(eg.addExpr(Sym("a")), eg.addExpr(Sym("b")))
    eg.rebuild()
    assert(eg.find(fa) == eg.find(fb))
  }

  test("congruence propagates transitively") {
    val eg = new EGraph
    val gfa = eg.addExpr(Get(Sym("g"), Get(Sym("f"), Sym("a"))))
    val gfb = eg.addExpr(Get(Sym("g"), Get(Sym("f"), Sym("b"))))
    eg.union(eg.addExpr(Sym("a")), eg.addExpr(Sym("b")))
    eg.rebuild()
    assert(eg.find(gfa) == eg.find(gfb))
  }

  test("node and class counts track structure") {
    val eg = new EGraph
    eg.addExpr(Bin(BinOp.Add, Sym("a"), Sym("b")))
    assert(eg.nodeCount == 3)
    assert(eg.classCount == 3)
    assert(eg.memoCount == 3)
  }

  test("nodeCount equals a full recount after random adds, unions and rebuilds") {
    def recount(eg: EGraph): Int = eg.classes.valuesIterator.map(_.size).sum
    (1 to 20).foreach { seed =>
      val rnd = new scala.util.Random(seed)
      val eg = new EGraph
      val ids = scala.collection.mutable.ArrayBuffer.empty[Int]
      (1 to 300).foreach { _ =>
        rnd.nextInt(10) match {
          case 0 | 1 | 2 | 3 if ids.nonEmpty =>
            val op = Seq(Op.Bin(BinOp.Add), Op.Bin(BinOp.Mul), Op.Get)(rnd.nextInt(3))
            ids += eg.add(ENode(op, Vector(ids(rnd.nextInt(ids.size)), ids(rnd.nextInt(ids.size)))))
          case 4 | 5 if ids.size > 1 =>
            eg.union(ids(rnd.nextInt(ids.size)), ids(rnd.nextInt(ids.size)))
          case 6 => eg.rebuild()
          case _ => ids += eg.add(ENode(Op.Sym(s"s${rnd.nextInt(8)}"), Vector.empty))
        }
        assert(eg.nodeCount == recount(eg), s"seed $seed")
      }
      eg.rebuild()
      assert(eg.nodeCount == recount(eg), s"seed $seed")
    }
  }

  test("decompose/compose round-trips every construct") {
    val dicts = for {
      unique <- Seq(true, false)
      phys <- Seq(Phys.PLog, Phys.PDense, Phys.PHash)
    } yield Dict(Num(1), Num(2), unique, phys)
    val exprs = Seq[Expr](
      Num(3.5), Num(-0.0), Vr(2), Sym("x"), Bin(BinOp.Mul, Num(1), Num(2)),
      IfThen(Num(1), Num(2)), Let(Num(1), Vr(0)), Sum(Sym("A"), Vr(0)),
      Get(Sym("A"), Num(1)), Rng(Num(0), Num(5)),
      SubArr(Sym("A"), Num(0), Num(2)), Merge(Sym("A"), Sym("B"), Vr(0))) ++ dicts
    val ops = exprs.map { e =>
      val (op, cs) = Op.decompose(e)
      assert(cs.length == op.arity, s"arity of $op")
      assert(op.compose(cs) == e, s"round-trip failed for $e")
      // the term-side child map names the same children and binder counts
      val seen = List.newBuilder[(Expr, Int)]
      Expr.mapChildren(e) { (c, n) => seen += ((c, n)); c }
      assert(seen.result() == cs.indices.map(i => (cs(i), op.binds(i))), s"children of $e")
      op
    }
    assert(ops.map(_.getClass).distinct.size == 12, "every Op case is covered")
    assert(ops.collect { case d: Op.Dict => d }.distinct.size == 6)
    assert(Seq(Op.Let, Op.Sum, Op.Merge).map(op => (0 until op.arity).map(op.binds)) ==
      Seq(Seq(0, 1), Seq(0, 2), Seq(0, 0, 3)))
    // operators print and hash as their symbols, the same in every run
    assert(BinOp.Mul.toString == "*" && BinOp.Mul.hashCode == "*".hashCode)
    // literals compare by bit pattern, as their printed forms did
    val eg = new EGraph
    assert(eg.addExpr(Num(0.0)) != eg.addExpr(Num(-0.0)))
    assert(eg.addExpr(Num(Double.NaN)) == eg.addExpr(Num(0.0 / 0.0)))
    assert(eg.addExpr(Bin(BinOp.Add, Num(Double.NaN), Num(-0.0))) ==
      eg.addExpr(Bin(BinOp.Add, Num(Double.NaN), Num(-0.0))))
  }

  private def smallest(eg: EGraph, cls: Int): Expr = Extract.representatives(eg)(eg.find(cls)).get

  test("addExpr then extract smallest returns an equivalent term") {
    val eg = new EGraph
    val e = Sum(Sym("A"), Dict(Vr(1), Bin(BinOp.Mul, Vr(0), Num(2))))
    val root = eg.addExpr(e)
    assert(smallest(eg, root) == e)
  }

  test("extraction prefers the smaller representative after union") {
    val eg = new EGraph
    val big = eg.addExpr(Bin(BinOp.Add, Bin(BinOp.Mul, Sym("a"), Num(1)), Num(0)))
    val small = eg.addExpr(Sym("a"))
    eg.union(big, small)
    eg.rebuild()
    assert(smallest(eg, big) == Sym("a"))
  }

  test("pattern matching binds metavariables") {
    val eg = new EGraph
    val root = eg.addExpr(Bin(BinOp.Mul, Sym("a"), Sym("b")))
    val ms = Matcher.matches(eg, PNode(Op.Bin(BinOp.Mul), Vector(PVar("x"), PVar("y"))), root)
    assert(ms.size == 1)
    assert(smallest(eg, ms.head("x")) == Sym("a"))
    assert(smallest(eg, ms.head("y")) == Sym("b"))
  }

  test("pattern with repeated metavariable requires equality") {
    val eg = new EGraph
    val ab = eg.addExpr(Bin(BinOp.Mul, Sym("a"), Sym("b")))
    assert(Matcher.matches(eg, PNode(Op.Bin(BinOp.Mul), Vector(PVar("x"), PVar("x"))), ab).isEmpty)
    val aa = eg.addExpr(Bin(BinOp.Mul, Sym("a"), Sym("a")))
    assert(Matcher.matches(eg, PNode(Op.Bin(BinOp.Mul), Vector(PVar("x"), PVar("x"))), aa).size == 1)
  }

  test("POpVar captures the op") {
    val eg = new EGraph
    val root = eg.addExpr(Dict(Num(1), Num(2), unique = true, Phys.PLog))
    val ms = Matcher.matches(eg,
      POpVar("d", _.isInstanceOf[Op.Dict], Vector(PVar("k"), PVar("v"))), root)
    assert(ms.size == 1)
    assert(ms.head.op("d") == Op.Dict(unique = true, Phys.PLog))
  }

  test("matches across merged classes") {
    val eg = new EGraph
    val root = eg.addExpr(Bin(BinOp.Add, Sym("x"), Num(0)))
    // unify x with a product; the + node should now match a (a*b)+0 pattern
    val prod = eg.addExpr(Bin(BinOp.Mul, Sym("a"), Sym("b")))
    eg.union(eg.addExpr(Sym("x")), prod)
    eg.rebuild()
    val pat = PNode(Op.Bin(BinOp.Add), Vector(PNode(Op.Bin(BinOp.Mul), Vector(PVar("p"), PVar("q"))), PVar("z")))
    assert(Matcher.matches(eg, pat, root).nonEmpty)
  }

  test("saturation applies a simple rule and stops") {
    val eg = new EGraph
    val root = eg.addExpr(Bin(BinOp.Add, Sym("a"), Num(0)))
    val rule = Rule.simple("L1", PNode(Op.Bin(BinOp.Add), Vector(PVar("a"), PNode(Op.Num(0.0), Vector.empty))), RVar("a"))
    val stats = Saturate.run(eg, Seq(rule), SatConfig(maxIters = 10))
    assert(stats.saturated && stats.stop == RunStats.Saturated)
    assert(smallest(eg, root) == Sym("a"))
  }

  test("saturation respects the node limit") {
    val eg = new EGraph
    // AC closure over an 8-term chain wants hundreds of classes
    val chain = (1 to 8).map(i => Sym(s"a$i"): Expr).reduceLeft(Bin(BinOp.Add, _, _))
    val root = eg.addExpr(chain)
    val comm = Rule.simple("C1", PNode(Op.Bin(BinOp.Add), Vector(PVar("x"), PVar("y"))),
      RNode(Op.Bin(BinOp.Add), RVar("y"), RVar("x")))
    val assoc = Rule.simple("AAdd",
      PNode(Op.Bin(BinOp.Add), Vector(PNode(Op.Bin(BinOp.Add), Vector(PVar("x"), PVar("y"))), PVar("z"))),
      RNode(Op.Bin(BinOp.Add), RVar("x"), RNode(Op.Bin(BinOp.Add), RVar("y"), RVar("z"))))
    val stats = Saturate.run(eg, Seq(comm, assoc), SatConfig(maxIters = 50, maxNodes = 60))
    assert(!stats.saturated && stats.stop == RunStats.NodeCap)
    assert(stats.nodes == eg.nodeCount && eg.nodeCount >= 60)
    assert(eg.find(root) >= 0)
  }

  test("saturation reports the iteration cap as its stop reason") {
    val eg = new EGraph
    eg.addExpr((1 to 8).map(i => Sym(s"a$i"): Expr).reduceLeft(Bin(BinOp.Add, _, _)))
    val comm = Rule.simple("C1", PNode(Op.Bin(BinOp.Add), Vector(PVar("x"), PVar("y"))),
      RNode(Op.Bin(BinOp.Add), RVar("y"), RVar("x")))
    val stats = Saturate.run(eg, Seq(comm), SatConfig(maxIters = 1))
    assert(stats.iters == 1 && !stats.saturated && stats.stop == RunStats.IterCap)
  }

  test("RunStats aggregate with +") {
    val a = RunStats(10, 2, 100, 50, 120)
    val b = RunStats(5, 3, 80, 60, 90, stop = RunStats.NodeCap)
    val c = a + b
    assert(c.timeMs == 15 && c.iters == 5 && c.nodes == 100 && c.classes == 60)
    assert(c.memos == 210 && !c.saturated && c.stop == RunStats.NodeCap)
    assert((c + b.copy(stop = RunStats.Timeout)).stop == RunStats.NodeCap)
  }
}
