package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Sugar._
import repro.exec._
import scala.collection.mutable.LongMap

/** Let-floating of loop-invariant loops ([[Hoist]]) on hand-built terms:
  * each case pins the floated term, and checks that it computes what the
  * original computes (compiled against tree-walked), that it costs no
  * more, and that floating it again changes nothing. */
class HoistSpec extends AnyFunSuite {

  private val symtab: Map[String, Value] = Map(
    "A" -> new VDenseN(Array(1.0, 0.0, 3.0, 2.0)),
    "B" -> new VHashN(LongMap(0L -> 2.0, 2L -> 5.0, 3L -> 1.0)),
    "I" -> new VDenseN(Array(0.0, 2.0, 3.0, 5.0)),
    "J" -> new VDenseN(Array(1.0, 2.0, 5.0)))
  private val cm = new CostModel(Stats(Map(
    "A" -> Card.of(1.0, (4.0, true)), "B" -> Card.of(1.0, (3.0, false)),
    "I" -> Card.of(1.0, (4.0, true)), "J" -> Card.of(1.0, (3.0, true)))))

  /** `e` floats to `want`, which is right and no costlier than `e`. */
  private def floats(e: Expr, want: Expr): Unit = {
    val got = Hoist(e)
    assert(got == want, s"\n${Expr.pretty(got)}\nwanted\n${Expr.pretty(want)}")
    assert(Value.deepEq(Interp.run(got, symtab), TreeInterp.run(e, symtab)))
    assert(cm.analyze(got)._2 <= cm.analyze(e)._2)
    assert(Hoist(got) eq got)
  }

  /** `sum(<k,c> in B) {k -> c * 2}`: a closed dictionary build. */
  private val doubledB = sum(gen("k")("c", "B"))(dict("k")(mul("c", 2)))

  test("a closed dictionary build under two nested sums floats to the top") {
    floats(
      compile(sum(gen("i")("a", "A"))(sum(gen("j")("b", "B"))(
        dict("i")(mul("a", "b", get(doubledB, "j")))))),
      compile(let("t" -> doubledB)(sum(gen("i")("a", "A"))(sum(gen("j")("b", "B"))(
        dict("i")(mul("a", "b", get("t", "j"))))))))
  }

  test("a sum that reads only the outer key floats to just inside the outer loop") {
    val scaledB = sum(gen("k")("c", "B"))(dict("k")(mul("c", "i")))
    floats(
      compile(sum(gen("i")("a", "A"))(sum(gen("j")("b", "B"))(
        dict("j")(mul("a", "b", get(scaledB, "j")))))),
      compile(sum(gen("i")("a", "A"))(let("t" -> scaledB)(sum(gen("j")("b", "B"))(
        dict("j")(mul("a", "b", get("t", "j"))))))))
  }

  test("an invariant sum inside a merge body floats out past its three binders") {
    val total = compile(sum(gen("k")("c", "B"))(mul("c", 2)))
    floats(
      Merge(Sym("I"), Sym("J"), Bin(BinOp.Mul, Vr(0), total)),
      Let(total, Merge(Sym("I"), Sym("J"), Bin(BinOp.Mul, Vr(0), Vr(3)))))
  }

  test("an invariant sum under an if inside a loop floats out") {
    val total = sum(gen("k")("c", "B"))(mul("c", 2))
    floats(
      compile(sum(gen("i")("a", "A"))(iff(SBin(BinOp.Gt, "a", 0))(mul("a", total)))),
      compile(let("s" -> total)(
        sum(gen("i")("a", "A"))(iff(SBin(BinOp.Gt, "a", 0))(mul("a", "s"))))))
  }

  test("two equal invariant sums share one let") {
    val total = sum(gen("k")("c", "B"))(mul("c", 2))
    floats(
      compile(sum(gen("i")("a", "A"))(dict("i")(add(mul("a", total), total)))),
      compile(let("s" -> total)(sum(gen("i")("a", "A"))(dict("i")(add(mul("a", "s"), "s"))))))
  }

  test("a let-bound invariant sum floats without leaving an alias") {
    floats(
      compile(sum(gen("i")("a", "A"))(let("t" -> doubledB)(dict("i")(mul("a", get("t", "i")))))),
      compile(let("t" -> doubledB)(sum(gen("i")("a", "A"))(dict("i")(mul("a", get("t", "i")))))))
  }

  test("a closed sum inside a floated sum goes to the top, ahead of it") {
    val total = sum(gen("l")("d", "A"))(mul("d", 2))
    floats(
      compile(sum(gen("i")("a", "A"))(sum(gen("j")("b", "B"))(dict("j")(
        get(sum(gen("k")("c", "B"))(dict("k")(mul("c", "i", total))), "j"))))),
      compile(let("s" -> total)(sum(gen("i")("a", "A"))(
        let("t" -> sum(gen("k")("c", "B"))(dict("k")(mul("c", "i", "s"))))(
          sum(gen("j")("b", "B"))(dict("j")(get("t", "j"))))))))
  }

  test("a term with nothing to float comes back as the same instance") {
    val e = compile(sum(gen("i")("a", "A"))(sum(gen("j")("b", "B"))(
      dict("i", "j")(mul("a", "b", sum(gen("k")("c", "B"))(mul("c", "j")))))))
    assert(Hoist(e) eq e)
  }

  test("a sum under only a let does not move") {
    val e = compile(let("x" -> n(3))(mul("x", sum(gen("k")("c", "B"))(mul("c", 2)))))
    assert(Hoist(e) eq e)
  }
}

object HoistSpec {

  /** Every `sum` or `merge` of `e` that sits in the body of a loop it
    * could be computed outside of: it reads neither that loop's binders
    * nor any binder between the loop and itself. */
  def invariantLoops(e: Expr): Seq[Expr] = {
    val out = Seq.newBuilder[Expr]
    def isLoop(t: Expr) = t match { case Sum(_, _) | Merge(_, _, _) => true; case _ => false }
    // `t` is `d` binders into the body of an enclosing loop with `nb` binders
    def inBody(t: Expr, d: Int, nb: Int): Unit =
      if (isLoop(t) && Expr.freeVars(t).forall(_ >= d + nb)) out += t
      else Expr.mapChildren(t) { (c, n) => inBody(c, d + n, nb); c }
    def walk(t: Expr): Unit = {
      t match {
        case Sum(_, b) => inBody(b, 0, 2)
        case Merge(_, _, b) => inBody(b, 0, 3)
        case _ =>
      }
      Expr.mapChildren(t) { (c, _) => walk(c); c }
    }
    walk(e)
    out.result()
  }
}
