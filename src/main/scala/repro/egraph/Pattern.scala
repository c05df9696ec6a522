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

/** One step of a compiled pattern. [[Bind]] tries every node of the
  * class in register `in` whose op is `op` (or satisfies `pred` when
  * `op` is null) and has `arity` children, writing the canonical
  * children to registers `out ..< out + arity`; with `opSlot >= 0` it
  * also binds (or, when `bindsOp` is false, checks) a captured op.
  * [[Compare]] requires two registers to hold the same class (a
  * repeated metavariable). */
private sealed trait Instr
private final case class Bind(in: Int, op: Op, pred: Op => Boolean, arity: Int,
                              out: Int, opSlot: Int, bindsOp: Boolean) extends Instr {
  def accepts(nodeOp: Op): Boolean = if (op != null) op == nodeOp else pred(nodeOp)
}
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
    case b: Bind if b.in == 0 => b.op
  }.orNull
  private[egraph] val rootPred: Op => Boolean = instrs.headOption.collect {
    case b: Bind if b.in == 0 && b.op == null => b.pred
  }.orNull

  /** Calls `f` with every substitution under which the pattern matches
    * class `cls`. The e-graph must not change during the search. */
  def search(eg: EGraph, cls: Int)(f: Subst => Unit): Unit = {
    val regs = new Array[Int](nRegs)
    val ops = new Array[Op](opNames.length)

    def step(pc: Int): Unit =
      if (pc == instrs.length)
        f(new Subst(names, varRegs.map(regs(_)), opNames, ops.clone()))
      else instrs(pc) match {
        case Compare(a, b) => if (regs(a) == regs(b)) step(pc + 1)
        case b: Bind =>
          val nodes = eg.nodes(regs(b.in))
          var i = 0
          while (i < nodes.length) {
            val n = nodes(i)
            if (n.children.length == b.arity && b.accepts(n.op) &&
                (b.opSlot < 0 || b.bindsOp || ops(b.opSlot) == n.op)) {
              if (b.bindsOp) ops(b.opSlot) = n.op
              var j = 0
              while (j < b.arity) {
                regs(b.out + j) = eg.find(n.children(j))
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
        instrs += Bind(reg, op, null, cs.length, out, -1, bindsOp = false)
        cs.indices.foreach(i => go(cs(i), out + i))
      case POpVar(v, pred, cs) =>
        val out = children(cs)
        val binds = !opVars.contains(v)
        val slot = opVars.getOrElseUpdate(v, opVars.size)
        instrs += Bind(reg, null, pred, cs.length, out, slot, binds)
        cs.indices.foreach(i => go(cs(i), out + i))
    }

    go(pat, 0)
    new Program(instrs.toArray, nRegs, vars.keys.toArray, vars.values.toArray,
      opVars.keys.toArray)
  }
}

/** Candidate root classes of every pattern, built once per saturation
  * iteration: for each op, the classes holding a node with that op; for
  * each root predicate, the classes holding a node whose op satisfies
  * it. Every list is in `ids` order, so searching a pattern's candidates
  * finds the matches a scan of all of `ids` would, in the same order. */
final class RootIndex(eg: EGraph, ids: Vector[Int]) {
  private val byOp = mutable.HashMap.empty[Op, mutable.ArrayBuffer[Int]]
  private val byPred = mutable.HashMap.empty[Op => Boolean, Vector[Int]]

  ids.foreach { cls =>
    eg.nodes(cls).foreach { n =>
      val bucket = byOp.getOrElseUpdate(n.op, mutable.ArrayBuffer.empty)
      if (bucket.isEmpty || bucket.last != cls) bucket += cls
    }
  }

  def candidates(p: Program): collection.IndexedSeq[Int] =
    if (p.rootOp != null) byOp.getOrElse(p.rootOp, Vector.empty)
    else if (p.rootPred != null)
      byPred.getOrElseUpdate(p.rootPred,
        ids.filter(cls => eg.nodes(cls).exists(n => p.rootPred(n.op))))
    else ids
}

object Matcher {

  /** All substitutions under which `pat` matches e-class `cls`. */
  def matches(eg: EGraph, pat: Pat, cls: Int): Seq[Subst] = {
    val out = mutable.ArrayBuffer.empty[Subst]
    Program.compile(pat).search(eg, cls)(out += _)
    out.toSeq
  }
}
