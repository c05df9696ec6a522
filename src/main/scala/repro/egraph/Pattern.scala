package repro.egraph

import scala.collection.mutable

/** Pattern language for e-matching. Metavariables ([[PVar]]) bind
  * e-classes; [[POpVar]] additionally captures the matched op (used by
  * rules that apply to any dictionary flag combination). */
sealed trait Pat
final case class PVar(name: String) extends Pat
final case class PNode(op: Op, children: Vector[Pat]) extends Pat
final case class POpVar(opVar: String, pred: Op => Boolean,
                        children: Vector[Pat]) extends Pat

/** A match: metavariable -> e-class id (canonical at match time), plus
  * captured ops. Slots are those of the compiled pattern, whose
  * name tables are shared by all of its matches. */
final class Subst private[egraph] (names: Array[String], cls: Array[Int],
                                   opNames: Array[String], ops: Array[Op]) {
  def apply(n: String): Int = cls(Subst.slot(names, n))
  def op(n: String): Op = ops(Subst.slot(opNames, n))
}

object Subst {
  private def slot(names: Array[String], n: String): Int = {
    val i = names.indexOf(n)
    if (i < 0) throw new NoSuchElementException(s"unbound metavariable $n")
    i
  }
}

/** One step of a compiled pattern. [[BindOp]] tries the nodes with op
  * `op` of the class in register `in`, and [[BindVar]] every node whose
  * op satisfies `pred` and has `arity` children; each writes the node's
  * children to registers `out ..< out + arity`. A [[BindVar]] also
  * binds (or, when `bindsOp` is false, checks) the captured op in slot
  * `opSlot`. [[Compare]] requires two registers to hold the same
  * class (a repeated metavariable). */
private sealed trait Instr
private final case class BindOp(in: Int, op: Op, out: Int) extends Instr
private final case class BindVar(in: Int, pred: Op => Boolean, arity: Int,
                                 out: Int, opSlot: Int, bindsOp: Boolean) extends Instr
private final case class Compare(a: Int, b: Int) extends Instr

/** A pattern compiled into a preorder instruction list over class
  * registers (register 0 holds the root class), after egg's e-matching
  * machine (Willsey et al., POPL 2021) and de Moura & Bjørner's
  * e-matching code trees (CADE 2007). Running the instructions with
  * backtracking enumerates matches in the order of a recursive matcher:
  * the root's nodes in class order, then each child's matches, left to
  * right, depth first. */
final class Program private[egraph] (
    private[egraph] val instrs: Array[Instr], nRegs: Int,
    names: Array[String], varRegs: Array[Int], opNames: Array[String]) {

  /** The root's op, the predicate on it, or neither for a metavariable
    * root: the key of the candidate-class index. */
  private[egraph] val rootOp: Op = instrs.headOption.collect {
    case b: BindOp if b.in == 0 => b.op
  }.orNull
  private[egraph] val rootPred: Op => Boolean = instrs.headOption.collect {
    case b: BindVar if b.in == 0 => b.pred
  }.orNull

  /** Calls `f` with every substitution under which the pattern matches
    * class `cls`, reading the nodes of each class through `index`. The
    * e-graph must not change during the search. */
  def search(index: OpIndex, cls: Int)(f: Subst => Unit): Unit = {
    val eg = index.eg
    val regs = new Array[Int](nRegs)
    val ops = new Array[Op](opNames.length)

    def step(pc: Int): Unit =
      if (pc == instrs.length) {
        val classes = new Array[Int](varRegs.length)
        var i = 0
        while (i < classes.length) {
          classes(i) = regs(varRegs(i))
          i += 1
        }
        f(new Subst(names, classes, opNames, ops.clone()))
      } else instrs(pc) match {
        case Compare(a, b) => if (regs(a) == regs(b)) step(pc + 1)
        case b: BindOp =>
          val g = index.group(regs(b.in), b.op)
          if (g >= 0) {
            var i = index.groupStart(g)
            val end = index.groupStart(g + 1)
            while (i < end) {
              val n = index.groupNode(i)
              var j = 0
              while (j < n.arity) {
                regs(b.out + j) = n.child(j)
                j += 1
              }
              step(pc + 1)
              i += 1
            }
          }
        case b: BindVar =>
          val nodes = eg.nodes(regs(b.in))
          var i = 0
          while (i < nodes.length) {
            val n = nodes(i)
            if (n.arity == b.arity && b.pred(n.op) && (b.bindsOp || ops(b.opSlot) == n.op)) {
              if (b.bindsOp) ops(b.opSlot) = n.op
              var j = 0
              while (j < b.arity) {
                regs(b.out + j) = n.child(j)
                j += 1
              }
              step(pc + 1)
            }
            i += 1
          }
      }

    regs(0) = eg.find(cls)
    step(0)
  }
}

object Program {
  def compile(pat: Pat): Program = {
    val instrs = mutable.ArrayBuffer.empty[Instr]
    val vars = mutable.LinkedHashMap.empty[String, Int]
    val opVars = mutable.LinkedHashMap.empty[String, Int]
    var nRegs = 1

    def children(cs: Vector[Pat]): Int = {
      val out = nRegs
      nRegs += cs.length
      out
    }
    def go(p: Pat, reg: Int): Unit = p match {
      case PVar(n) =>
        vars.get(n) match {
          case Some(bound) => instrs += Compare(bound, reg)
          case None => vars(n) = reg
        }
      case PNode(op, cs) =>
        require(cs.length == op.arity, s"$op takes ${op.arity} children, not ${cs.length}")
        val out = children(cs)
        instrs += BindOp(reg, op, out)
        cs.indices.foreach(i => go(cs(i), out + i))
      case POpVar(v, pred, cs) =>
        val out = children(cs)
        val binds = !opVars.contains(v)
        val slot = opVars.getOrElseUpdate(v, opVars.size)
        instrs += BindVar(reg, pred, cs.length, out, slot, binds)
        cs.indices.foreach(i => go(cs(i), out + i))
    }

    go(pat, 0)
    new Program(instrs.toArray, nRegs, vars.keys.toArray, vars.values.toArray,
      opVars.keys.toArray)
  }
}

/** The nodes of the classes `ids` (live, in increasing order, of an
  * e-graph with no union pending, so that every node is canonical),
  * grouped by op, taken once per saturation iteration, when matching
  * starts: the e-graph does not change until every match is collected,
  * so the snapshot is exact. A class's groups follow the order in which
  * their ops first occur in the class, and each group keeps class
  * order, so a [[BindOp]] reads only its op's group and meets the nodes
  * a scan of the class would accept, in the same order. The groups
  * also give every pattern its candidate root classes: for each op, the
  * classes holding a node with that op; for each root predicate, the
  * classes holding a node whose op satisfies it. Every list is in `ids`
  * order, so searching a pattern's candidates finds the matches a scan
  * of all of `ids` would, in the same order. */
final class OpIndex(val eg: EGraph, ids: Vector[Int]) {
  // Class `c` holds groups `firstGroup(c) until endGroup(c)`; group `g`
  // holds the nodes with op `groupOp(g)`,
  // `groupNode(groupStart(g) until groupStart(g + 1))`.
  private val groupNodes = new Array[ENode](eg.nodeCount)
  private val groupOp = mutable.ArrayBuffer.empty[Op]
  private val groupStarts = mutable.ArrayBuffer(0)
  private val firstGroup = new Array[Int](eg.idBound)
  private val endGroup = new Array[Int](eg.idBound)
  private val byOp = mutable.HashMap.empty[Op, mutable.ArrayBuffer[Int]]
  private val byPred = mutable.HashMap.empty[Op => Boolean, Vector[Int]]

  locally {
    var grouped = 0
    ids.foreach { cls =>
      val ns = eg.nodes(cls)
      firstGroup(cls) = groupOp.length
      var i = 0
      while (i < ns.length) {
        val n = ns(i)
        // a class has few distinct ops: a node finds its group by a scan
        if (group(cls, groupOp.length, n.op) < 0) {
          groupOp += n.op
          byOp.getOrElseUpdate(n.op, mutable.ArrayBuffer.empty) += cls
        }
        i += 1
      }
      endGroup(cls) = groupOp.length
      var g = firstGroup(cls)
      while (g < endGroup(cls)) {
        i = 0
        while (i < ns.length) {
          if (ns(i).op == groupOp(g)) {
            groupNodes(grouped) = ns(i)
            grouped += 1
          }
          i += 1
        }
        groupStarts += grouped
        g += 1
      }
    }
  }

  private def group(cls: Int, end: Int, op: Op): Int = {
    var g = firstGroup(cls)
    while (g < end && !((groupOp(g) eq op) || groupOp(g) == op)) g += 1
    if (g < end) g else -1
  }

  /** The group of the nodes with op `op` in class `cls` of `ids`, or -1
    * when the class has none. */
  private[egraph] def group(cls: Int, op: Op): Int = group(cls, endGroup(cls), op)
  private[egraph] def groupStart(g: Int): Int = groupStarts(g)
  private[egraph] def groupNode(i: Int): ENode = groupNodes(i)

  def candidates(p: Program): collection.IndexedSeq[Int] =
    if (p.rootOp != null) byOp.getOrElse(p.rootOp, Vector.empty)
    else if (p.rootPred != null)
      byPred.getOrElseUpdate(p.rootPred, ids.filter { cls =>
        (firstGroup(cls) until endGroup(cls)).exists(g => p.rootPred(groupOp(g)))
      })
    else ids
}

object Matcher {

  /** All substitutions under which `pat` matches e-class `cls`. */
  def matches(eg: EGraph, pat: Pat, cls: Int): Seq[Subst] = {
    val out = mutable.ArrayBuffer.empty[Subst]
    Program.compile(pat).search(new OpIndex(eg, eg.classIds), cls)(out += _)
    out.toSeq
  }
}
