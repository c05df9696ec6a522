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
    /** The live classes in increasing id order, and the counters agree
      * with a recount over them. */
    def check(eg: EGraph, seed: Int): Unit = {
      val ids = eg.classIds
      assert(ids.zip(ids.drop(1)).forall { case (a, b) => a < b }, s"seed $seed")
      assert(ids == (0 until eg.idBound).filter(i => eg.find(i) == i), s"seed $seed")
      assert(eg.classCount == ids.size, s"seed $seed")
      assert(eg.nodeCount == ids.map(eg.nodes(_).size).sum, s"seed $seed")
    }
    /** After a rebuild, every node of a live class is canonical and
      * hash-consed to that class, no live class holds a node twice, and
      * no two live classes hold equal nodes; so `nodeCount` counts
      * distinct nodes. */
    def hashConsed(eg: EGraph, seed: Int): Unit = {
      val owner = scala.collection.mutable.HashMap.empty[ENode, Int]
      assert(eg.nodeCount == eg.classIds.map(eg.nodes(_).distinct.size).sum, s"seed $seed")
      eg.classIds.foreach { cls =>
        val ns = eg.nodes(cls)
        assert(ns.distinct == ns, s"seed $seed: class $cls holds ${ns.diff(ns.distinct)} twice")
        ns.foreach { n =>
          assert(eg.canonicalize(n) eq n, s"seed $seed: $n is not canonical")
          val memos = eg.memoCount
          assert(eg.add(n) == cls && eg.memoCount == memos, s"seed $seed: $n")
          assert(owner.getOrElseUpdate(n, cls) == cls, s"seed $seed: $n in two classes")
        }
      }
    }
    (1 to 20).foreach { seed =>
      val rnd = new scala.util.Random(seed)
      val eg = new EGraph
      val ids = scala.collection.mutable.ArrayBuffer.empty[Int]
      (1 to 300).foreach { _ =>
        rnd.nextInt(10) match {
          case 0 | 1 | 2 | 3 if ids.nonEmpty =>
            val op = Seq(Op.Bin(BinOp.Add), Op.Bin(BinOp.Mul), Op.Get)(rnd.nextInt(3))
            ids += eg.add(ENode(op, Array(ids(rnd.nextInt(ids.size)), ids(rnd.nextInt(ids.size)))))
          case 4 | 5 if ids.size > 1 =>
            eg.union(ids(rnd.nextInt(ids.size)), ids(rnd.nextInt(ids.size)))
          case 6 =>
            eg.rebuild()
            hashConsed(eg, seed)
          case _ => ids += eg.add(ENode(Op.Sym(s"s${rnd.nextInt(8)}"), Array.empty[Int]))
        }
        check(eg, seed)
      }
      eg.rebuild()
      check(eg, seed)
      hashConsed(eg, seed)
    }
  }

  test("e-nodes are equal, and hash alike, exactly when their ops and children are") {
    val cs = Array(3, 5)
    val n = ENode(Op.Bin(BinOp.Add), cs)
    val same = ENode(Op.Bin(BinOp.Add), Array(3, 5))
    assert(n == same && n.hashCode == same.hashCode)
    assert(n != ENode(Op.Bin(BinOp.Add), Array(5, 3)) && n != ENode(Op.Bin(BinOp.Mul), Array(3, 5)))
    assert(ENode(Op.Num(0.0), Array.empty[Int]) != ENode(Op.Num(-0.0), Array.empty[Int]))
    // the node copies the caller's array
    cs(0) = 4
    assert(n.children == Seq(3, 5) && n == same && n.hashCode == same.hashCode)
    // a node whose children are canonical is its own canonical form
    val eg = new EGraph
    val a = eg.addExpr(Sym("a"))
    val b = eg.addExpr(Sym("b"))
    val ab = ENode(Op.Get, Array(a, b))
    assert(eg.canonicalize(ab) eq ab)
    eg.union(b, eg.addExpr(Sym("c")))
    eg.union(a, b)
    assert(eg.canonicalize(ab) == ENode(Op.Get, Array(eg.find(a), eg.find(a))))
  }

  test("addExpr adds a 7,000-deep term bottom-up on a 256 KB thread stack") {
    val depth = 7000
    val chain = (1 to depth).foldLeft(Sym("a0"): Expr)((acc, i) => Bin(BinOp.Add, acc, Num(i)))
    val (root, eg) = EGraphSpec.onSmallStack("deep-addExpr") {
      val eg = new EGraph
      (eg.addExpr(chain), eg)
    }.fold(e => fail(s"addExpr failed: $e"), identity)
    // ids in post-order: a0, then each level's literal and its +
    assert(root == 2 * depth && eg.classCount == 2 * depth + 1)
    assert(eg.nodes(0).map(_.op) == Seq(Op.Sym("a0")))
    (1 to depth).foreach { i =>
      assert(eg.nodes(2 * i - 1).map(_.op) == Seq(Op.Num(i.toDouble)))
      assert(eg.nodes(2 * i).map(_.children) == Seq(Seq(2 * i - 2, 2 * i - 1)))
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

  private def smallest(eg: EGraph, cls: Int): Expr =
    Extract.representatives(eg, eg.classIds)(eg.find(cls)).get

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
    val a = RunStats(10, 2, 100, 50, 120, matchMs = 1, applyMs = 2, rebuildMs = 3, reprMs = 4)
    val b = RunStats(5, 3, 80, 60, 90, stop = RunStats.NodeCap, matchMs = 0.5, reprMs = 1)
    val c = a + b
    assert(c.timeMs == 15 && c.iters == 5 && c.nodes == 100 && c.classes == 60)
    assert(c.memos == 210 && !c.saturated && c.stop == RunStats.NodeCap)
    assert((c + b.copy(stop = RunStats.Timeout)).stop == RunStats.NodeCap)
    assert(c.matchMs == 1.5 && c.applyMs == 2 && c.rebuildMs == 3 && c.reprMs == 5)
  }

  test("saturation splits its time over matching, application, rebuild and representatives") {
    val eg = new EGraph
    eg.addExpr((1 to 6).map(i => Sym(s"a$i"): Expr).reduceLeft(Bin(BinOp.Add, _, _)))
    val stats = Saturate.run(eg, Rules.logical, SatConfig(maxIters = 5))
    val phases = Seq(stats.matchMs, stats.applyMs, stats.rebuildMs, stats.reprMs)
    assert(phases.forall(_ >= 0) && phases.exists(_ > 0), phases)
    assert(phases.sum <= stats.timeMs, s"$phases against ${stats.timeMs}")
  }

  // a + b -> a' - b, with a's free variables shifted up by one
  private val shiftLeft = Rule.simple("shiftLeft",
    PNode(Op.Bin(BinOp.Add), Vector(PVar("a"), PVar("b"))),
    RNode(Op.Bin(BinOp.Sub), RRemap("a", _ + 1), RVar("b")))
  private val xc = Bin(BinOp.Mul, Vr(0), Sym("c"))

  test("one iteration inserts a class's shifted term once, at every match") {
    // (v0*c + p) * (v0*c + q): the rule matches both sums, at the class of v0*c
    val eg = new EGraph
    eg.addExpr(Bin(BinOp.Mul, Bin(BinOp.Add, xc, Sym("p")), Bin(BinOp.Add, xc, Sym("q"))))
    val memos = eg.memoCount
    Saturate.run(eg, Seq(shiftLeft), SatConfig(maxIters = 1))
    // the shifted term's two nodes, v1 and v1*c, then one - per match
    assert(eg.memoCount == memos + 2 + 2)
    val shifted = eg.find(eg.addExpr(Bin(BinOp.Mul, Vr(1), Sym("c"))))
    val subs = eg.classIds.flatMap(eg.nodes).filter(_.op == Op.Bin(BinOp.Sub))
    assert(subs.size == 2 && subs.forall(n => eg.find(n.children(0)) == shifted))
  }

  test("the shifted term is read back through find after a union, and only in its iteration") {
    val eg = new EGraph
    val x = eg.addExpr(xc)
    val template = RRemap("a", _ + 1)
    val ctx = new RuleCtx(eg, Extract.representatives(eg, eg.classIds))
    val first = ctx.remap(template, x)
    // c joins a larger class, so v1*c is no longer hash-consed under its
    // canonical form until a rebuild; the cache does not insert it again
    val c = eg.addExpr(Sym("c"))
    eg.union(eg.addExpr(Sym("d")), eg.addExpr(Sym("e")))
    eg.union(eg.addExpr(Sym("d")), c)
    val memos = eg.memoCount
    assert(ctx.remap(template, x) == eg.find(first) && eg.memoCount == memos)
    eg.rebuild()
    // x gets the smaller representative v2, which the next iteration's
    // context shifts to v3
    eg.union(x, eg.addExpr(Vr(2)))
    eg.rebuild()
    val next = new RuleCtx(eg, Extract.representatives(eg, eg.classIds))
    assert(ctx.remap(template, x) == eg.find(first))
    assert(next.remap(template, x) == eg.find(eg.addExpr(Vr(3))))
    assert(eg.find(eg.addExpr(Vr(3))) != eg.find(first))
  }
}

object EGraphSpec {
  /** `f`, run on a new thread with a 256 KB stack, or what it threw. */
  def onSmallStack[A](name: String)(f: => A): Either[Throwable, A] = {
    var result: Either[Throwable, A] = Left(new IllegalStateException("not run"))
    val thread = new Thread(null, () => {
      result = try Right(f) catch { case e: Throwable => Left(e) }
    }, name, 256 * 1024)
    thread.start()
    thread.join()
    result
  }
}
