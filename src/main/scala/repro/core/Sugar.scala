package repro.core

/** Named-variable surface syntax for SDQLite plus the Table-1 sugar.
  *
  * Kernels and storage mappings are written against this API (in a form
  * close to the paper's concrete syntax) and compiled to the De Bruijn
  * core [[Expr]]. Desugarings implemented here (Table 1):
  *
  *   - tuple keys in dictionaries: `{(e1,e2) -> e}` → `{e1 -> {e2 -> e}}`
  *   - tuple keys in sums: `sum(<(k1,k2),v> in e)` → nested sums
  *   - multi-generator sums: `sum(g1, g2) e` → `sum(g1) sum(g2) e`
  *   - repeated variables across generators → equality conditions
  *   - curried lookup: `e(e1,e2)` → `e(e1)(e2)`
  *   - multi-binding `let`
  */
object Sugar {

  sealed trait S
  final case class SNum(v: Double) extends S
  /** Reference — resolves to the nearest enclosing binding of `name`,
    * else to the global symbol `name`. */
  final case class SRef(name: String) extends S
  final case class SBin(op: BinOp, a: S, b: S) extends S
  final case class SIf(c: S, t: S) extends S
  final case class SLet(bindings: List[(String, S)], body: S) extends S
  /** One `<pattern, valName> in coll` generator; the pattern is a tuple
    * of key names (singleton for the non-tuple case). A name of "_" is
    * ignored; a name already in scope (or repeated in this sum's
    * patterns) becomes an equality condition, per Table 1. */
  final case class Gen(keys: List[String], valName: String, coll: S)
  final case class SSum(gens: List[Gen], body: S) extends S
  /** `{(k1,..,kd) -> v}` with per-level unique flags and a phys hint. */
  final case class SDict(keys: List[S], value: S,
                         unique: List[Boolean] = Nil,
                         phys: Phys = Phys.PLog) extends S
  final case class SGet(dict: S, keys: List[S]) extends S
  final case class SRng(lo: S, hi: S) extends S
  final case class SSub(arr: S, lo: S, hi: S) extends S

  // -- convenience constructors --------------------------------------------
  import scala.language.implicitConversions
  implicit def intLit(i: Int): S = SNum(i.toDouble)
  implicit def dblLit(d: Double): S = SNum(d)
  implicit def ref(n: String): S = SRef(n)

  def n(v: Double): S = SNum(v)
  def v(name: String): S = SRef(name)
  def sum(gens: Gen*)(body: S): S = SSum(gens.toList, body)
  def gen(keys: String*)(valName: String, coll: S): Gen =
    Gen(keys.toList, valName, coll)
  def dict(keys: S*)(value: S): S = SDict(keys.toList, value)
  def get(d: S, keys: S*): S = SGet(d, keys.toList)
  def rng(lo: S, hi: S): S = SRng(lo, hi)
  def sub(arr: S, lo: S, hi: S): S = SSub(arr, lo, hi)
  def let(bs: (String, S)*)(body: S): S = SLet(bs.toList, body)
  def iff(c: S)(t: S): S = SIf(c, t)
  def mul(xs: S*): S = xs.reduceLeft(SBin(BinOp.Mul, _, _))
  def add(xs: S*): S = xs.reduceLeft(SBin(BinOp.Add, _, _))
  def eqq(a: S, b: S): S = SBin(BinOp.Eq, a, b)

  // -- compilation ----------------------------------------------------------

  private val fresh = new java.util.concurrent.atomic.AtomicLong(0)
  private def gensym(prefix: String): String =
    s"$$$prefix${fresh.incrementAndGet()}"

  /** Compile surface syntax to the De Bruijn core. Unbound names become
    * global [[Sym]]s. */
  def compile(s: S): Expr = go(s, Nil)

  // scope: innermost-first list of bound names
  private def go(s: S, scope: List[String]): Expr = s match {
    case SNum(v) => Num(v)
    case SRef(name) =>
      val ix = scope.indexOf(name)
      if (ix >= 0) Vr(ix) else Sym(name)
    case SBin(op, a, b) => Bin(op, go(a, scope), go(b, scope))
    case SIf(c, t)      => IfThen(go(c, scope), go(t, scope))
    case SLet(Nil, body) => go(body, scope)
    case SLet((name, bound) :: rest, body) =>
      Let(go(bound, scope), go(SLet(rest, body), name :: scope))
    case SDict(Nil, value, _, _) => go(value, scope)
    case SDict(k :: ks, value, uniq, phys) =>
      val (u, us) = uniq match { case h :: t => (h, t); case Nil => (false, Nil) }
      Dict(go(k, scope), go(SDict(ks, value, us, phys), scope), u, phys)
    case SGet(d, Nil)     => go(d, scope)
    case SGet(d, k :: ks) => go(SGet(SGetCompiled(Get(go(d, scope), go(k, scope))), ks), scope)
    case SGetCompiled(e)  => e
    case SRng(lo, hi)     => Rng(go(lo, scope), go(hi, scope))
    case SSub(a, lo, hi)  => SubArr(go(a, scope), go(lo, scope), go(hi, scope))
    case SSum(Nil, body)  => go(body, scope)
    case SSum(Gen(keys, valName, coll) :: restGens, body) =>
      compileGen(keys, valName, coll, SSum(restGens, body), scope)
  }

  /** Wrapper so already-compiled subtrees can flow back through `go`
    * (they contain De Bruijn indices valid in the current scope). */
  private final case class SGetCompiled(e: Expr) extends S

  /** Compile one generator `<(k1..kd), v> in coll` over `rest`:
    * nested sums for the tuple levels, with equality conditions for
    * names already in scope / repeated, and "_" ignored. */
  private def compileGen(keys: List[String], valName: String, coll: S,
                         rest: S, scope: List[String]): Expr = {
    val collE = go(coll, scope)
    keys match {
      case k :: Nil =>
        val (kName, cond) = freshen(k, scope)
        val innerScope = valName :: kName :: scope
        val body0 = go(rest, innerScope)
        Sum(collE, withCond(cond, innerScope, body0))
      case k :: more =>
        // sum(<(k1,rest...),v> in e) b  →  sum(<k1,w> in e) sum(<(rest...),v> in w) b
        val w = gensym("w")
        val (kName, cond) = freshen(k, scope)
        val innerScope = w :: kName :: scope
        val inner = compileGen(more, valName, SRef(w), rest, innerScope)
        Sum(collE, withCond(cond, innerScope, inner))
      case Nil => throw new IllegalArgumentException("generator needs >=1 key")
    }
  }

  /** If `k` is "_" return a fresh ignored name; if `k` is already bound,
    * return a fresh name plus the condition freshName == k. */
  private def freshen(k: String, scope: List[String]): (String, Option[(String, String)]) =
    if (k == "_") (gensym("ign"), None)
    else if (scope.contains(k)) { val f = gensym(k); (f, Some((f, k))) }
    else (k, None)

  private def withCond(cond: Option[(String, String)], scope: List[String],
                       body: Expr): Expr = cond match {
    case None => body
    case Some((a, b)) =>
      IfThen(Bin(BinOp.Eq, Vr(scope.indexOf(a)), Vr(scope.indexOf(b))), body)
  }
}
