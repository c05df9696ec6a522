package repro.egraph

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.meas.Table3
import repro.storage._
import scala.collection.mutable

/** The recursive top-down e-matcher that [[Program]] replaced, kept as
  * the oracle of the differential test below: it lists the matches of a
  * pattern in a class as immutable maps, in the order [[Program.search]]
  * must reproduce. */
object RecursiveMatcher {

  final case class Binding(cls: Map[String, Int], ops: Map[String, Op])

  def matches(eg: EGraph, pat: Pat, cls: Int): Seq[Binding] =
    go(eg, pat, eg.find(cls), Binding(Map.empty, Map.empty))

  private def go(eg: EGraph, pat: Pat, cls: Int, s: Binding): Seq[Binding] = pat match {
    case PVar(n) =>
      s.cls.get(n) match {
        case Some(bound) => if (eg.find(bound) == eg.find(cls)) Seq(s) else Seq.empty
        case None => Seq(s.copy(cls = s.cls.updated(n, eg.find(cls))))
      }
    case PNode(op, cs) =>
      nodesOf(eg, cls).filter(_.op == op).flatMap(n => goChildren(eg, cs, n.children, s))
    case POpVar(opVar, pred, cs) =>
      nodesOf(eg, cls).filter(n => pred(n.op)).flatMap { n =>
        val s1 = s.ops.get(opVar) match {
          case Some(prev) => if (prev == n.op) Some(s) else None
          case None => Some(s.copy(ops = s.ops.updated(opVar, n.op)))
        }
        s1.toSeq.flatMap(goChildren(eg, cs, n.children, _))
      }
  }

  private def nodesOf(eg: EGraph, cls: Int): Seq[ENode] =
    eg.nodes(cls).toSeq

  private def goChildren(eg: EGraph, pats: Vector[Pat], kids: Seq[Int],
                         s: Binding): Seq[Binding] =
    if (pats.length != kids.length) Seq.empty
    else pats.zip(kids).foldLeft(Seq(s)) { case (acc, (p, c)) =>
      acc.flatMap(go(eg, p, c, _))
    }
}

class MatcherSpec extends AnyFunSuite {
  import RecursiveMatcher.Binding

  private def names(p: Pat): (Seq[String], Seq[String]) = p match {
    case PVar(n) => (Seq(n), Nil)
    case PNode(_, cs) =>
      val sub = cs.map(names)
      (sub.flatMap(_._1).distinct, sub.flatMap(_._2).distinct)
    case POpVar(v, _, cs) =>
      val sub = cs.map(names)
      (sub.flatMap(_._1).distinct, (v +: sub.flatMap(_._2)).distinct)
  }

  private def binding(pat: Pat, s: Subst): Binding = {
    val (vs, ops) = names(pat)
    Binding(vs.map(n => n -> s(n)).toMap, ops.map(n => n -> s.op(n)).toMap)
  }

  private val matA = CooMat.random(20, 20, 70, seed = 1)
  private val matB = CooMat.random(20, 15, 50, seed = 2)
  private val vecX = Array.tabulate(20)(i => 0.5 + i * 0.1)
  private val tenA = Coo3.random(8, 9, 10, 80, seed = 3)
  private val mkB = CooMat.random(9, 6, 30, seed = 5)
  private val mkC = CooMat.random(10, 6, 35, seed = 6)
  private val ttmB = CooMat.random(12, 10, 40, seed = 4)

  /** Every Kernels program, alone and composed with its Table 4 storage
    * mappings (which bring in the physical ops). */
  private val seeds: Seq[(String, Expr)] =
    Table3.table4(Table3.Workload(matA, matB, vecX, 2.5, tenA, ttmB, mkB, mkC))
      .sortBy(_.kernel).flatMap { p =>
        Seq(p.kernel -> p.tp, s"${p.kernel} composed" -> Optimizer.compose(p.tp, p.storages))
      }

  private val rules: Seq[Rule] = (Rules.logical ++ Rules.physicalStage).distinct

  seeds.foreach { case (name, e) =>
    test(s"compiled matcher lists the recursive matcher's matches in order: $name") {
      val eg = new EGraph
      eg.addExpr(e)
      Saturate.run(eg, Rules.physicalStage, SatConfig(maxIters = 3, maxNodes = 100000,
        timeoutMs = 600000), Set("beta"))
      val ids = eg.classIds
      val index = new OpIndex(eg, ids)
      var total = 0
      rules.foreach { rule =>
        val expected = ids.flatMap(c => RecursiveMatcher.matches(eg, rule.lhs, c).map(c -> _))
        val got = mutable.ArrayBuffer.empty[(Int, Binding)]
        index.candidates(rule.program).foreach { c =>
          rule.program.search(index, c)(s => got += (c -> binding(rule.lhs, s)))
        }
        assert(got.toSeq == expected, s"rule ${rule.name} on $name")
        total += expected.size
      }
      assert(total > 0)
    }
  }

  test("child binds list a mixed class's matches in class order, by op or op variable") {
    val eg = new EGraph
    val mixed = Seq[Expr](
      Dict(Sym("k"), Num(1)), Bin(BinOp.Mul, Sym("a"), Sym("b")),
      Dict(Sym("k"), Num(2), unique = true, Phys.PLog), Bin(BinOp.Add, Sym("a"), Sym("b")),
      Dict(Sym("k"), Num(3), phys = Phys.PHash), Bin(BinOp.Mul, Sym("c"), Sym("d")),
      Dict(Sym("k"), Num(4))).map(eg.addExpr)
    mixed.foreach(eg.union(mixed.head, _))
    eg.rebuild()
    val cls = eg.find(mixed.head)
    assert(eg.nodes(cls).map(_.op.getClass).distinct.size == 2 && eg.nodes(cls).size == mixed.size)
    eg.addExpr(Get(Sym("t"), Sym("a")))
    val get = eg.add(ENode(Op.Get, Array(eg.addExpr(Sym("t")), cls)))
    eg.rebuild()
    val logDict: Op => Boolean = {
      case Op.Dict(_, Phys.PLog) => true
      case _ => false
    }
    val byOp = PNode(Op.Get, Vector(PVar("t"),
      PNode(Op.Bin(BinOp.Mul), Vector(PVar("x"), PVar("y")))))
    val byOpVar = PNode(Op.Get, Vector(PVar("t"),
      POpVar("d", logDict, Vector(PVar("k"), PVar("v")))))
    val ids = eg.classIds
    val index = new OpIndex(eg, ids)
    Seq(byOp -> 2, byOpVar -> 3).foreach { case (pat, count) =>
      val prog = Program.compile(pat)
      val expected = ids.flatMap(c => RecursiveMatcher.matches(eg, pat, c).map(c -> _))
      val got = mutable.ArrayBuffer.empty[(Int, Binding)]
      index.candidates(prog).foreach(c => prog.search(index, c)(s => got += (c -> binding(pat, s))))
      assert(got.toSeq == expected && expected.size == count, pat)
      assert(expected.forall(_._1 == eg.find(get)))
    }
  }

  test("a pattern whose root is a metavariable matches every class once") {
    val eg = new EGraph
    eg.addExpr(Bin(BinOp.Add, Sym("a"), Num(0)))
    val prog = Program.compile(PVar("x"))
    val ids = eg.classIds
    val got = new OpIndex(eg, ids).candidates(prog).flatMap(c => Matcher.matches(eg, PVar("x"), c))
    assert(got.map(_("x")) == ids)
  }

  test("a repeated op variable requires the same op") {
    val eg = new EGraph
    val pred: Op => Boolean = _.isInstanceOf[Op.Dict]
    val pat = PNode(Op.Bin(BinOp.Add), Vector(POpVar("d", pred, Vector(PVar("k"), PVar("a"))),
      POpVar("d", pred, Vector(PVar("k"), PVar("b")))))
    val same = eg.addExpr(Bin(BinOp.Add, Dict(Sym("k"), Num(1)), Dict(Sym("k"), Num(2))))
    val mixed = eg.addExpr(Bin(BinOp.Add, Dict(Sym("k"), Num(1)),
      Dict(Sym("k"), Num(2), unique = true, Phys.PLog)))
    assert(Matcher.matches(eg, pat, same).map(_.op("d")) == Seq(Op.Dict(unique = false, Phys.PLog)))
    assert(Matcher.matches(eg, pat, mixed).isEmpty)
    assert(RecursiveMatcher.matches(eg, pat, mixed).isEmpty)
  }
}
