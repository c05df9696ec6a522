package repro.meas

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.exec._
import repro.kernels.Kernels
import repro.storage._
import repro.baselines.{Linalg, Systems}
import repro.relational.{DuckKernels, RelKernels}

/** Table 3 reproduction: for every tensor program and every system, the
  * best storage format found by measurement (plus its runtime — the
  * same measurements underlie Fig. 7). STOREL and the Taco model run
  * candidate formats through the optimizer + single-node engine; the
  * library baselines run their fixed formats (CSR / Dense / COO); DuckDB
  * runs the aggregate-join SQL; Spark SQL is our extra relational row.
  * The kernel × format grid is stated once, as `programs`, which Table 4
  * and the optimizer tests read too.
  *
  * A is synthetic (the paper uses the Table 2 datasets for A; one
  * synthetic A keeps the grid affordable — Table2Bench covers the
  * dataset shapes); all other operands use sparsity 2⁻⁵ and the paper's
  * inner dimensions (B: _×250 for matrices, _×25 for tensors), at 1/~100
  * linear scale to suit the interpreter substrate.
  */
object Table3 {

  final case class Workload(
      a: CooMat, b: CooMat, x: Array[Double], beta: Double,
      a3: Coo3, bTtm: CooMat, bMk: CooMat, cMk: CooMat)

  def defaultWorkload(seed: Long = 11): Workload = {
    val m = 300
    val a = CooMat.random(m, m, (m * m * 0.01).toInt, seed)           // A: sparse
    val b = CooMat.random(m, 250, (m * 250 / 32.0).toInt, seed + 1)   // 2^-5
    val x = Array.tabulate(m)(i => 0.3 + (i % 11) * 0.07)
    val a3 = Coo3.random(50, 50, 50, 6000, seed + 2)
    val bTtm = CooMat.random(25, 50, (25 * 50 / 32.0).toInt + 1, seed + 3) // B(k,l)
    val bMk = CooMat.random(50, 25, (50 * 25 / 32.0).toInt + 1, seed + 4)  // B(k,j)
    val cMk = CooMat.random(50, 25, (50 * 25 / 32.0).toInt + 1, seed + 5)  // C(l,j)
    Workload(a, b, x, 2.5, a3, bTtm, bMk, cMk)
  }

  /** One tensor program of the evaluation grid: `kernel` with one storage
    * format per operand (`formats`, in operand order), the inputs it needs
    * and its ground-truth result. Storages and reference are built on
    * first use. */
  final class Program private[Table3] (
      val kernel: String, val formats: Seq[String], val tp: Expr,
      buildStorages: => Seq[Storage],
      val extraCards: Map[String, Card], val extraVals: Map[String, Value],
      buildReference: => Value) {
    lazy val storages: Seq[Storage] = buildStorages
    lazy val reference: Value = buildReference
    /** The label Table 3 prints, e.g. `CSF,CSR,CSC`. */
    def format: String = formats.mkString(",")
    def symtab: Map[String, Value] = storages.flatMap(_.symbols).toMap ++ extraVals
  }

  private val matFormats: Map[String, (String, CooMat) => Storage] = Map(
    "CSR" -> Formats.csr, "CSC" -> Formats.csc, "Dense" -> Formats.denseMat,
    "COO" -> Formats.coo, "Trie" -> Formats.trie, "DCSR" -> Formats.dcsr,
    "Hash" -> Formats.dok)

  /** The storage formats Table 3 tries for each kernel, in the order it
    * runs them. Vectors are only `Dense` and rank-3 tensors only `CSF`. */
  private val candidates: Seq[(String, Seq[String])] = Seq(
    "MMM" -> Seq("CSR,CSR", "CSC,CSR", "Dense,Dense", "COO,COO", "Trie,Trie"),
    "SumMMM" -> Seq("CSC,CSR", "CSR,CSR", "Dense,Dense", "Trie,Trie"),
    "BATAX" -> Seq("CSR,Dense", "Trie,Dense", "Dense,Dense", "DCSR,Dense"),
    "TTM" -> Seq("CSF,CSC", "CSF,CSR"),
    "MTTKRP" -> Seq("CSF,CSR,CSC", "CSF,CSR,CSR"))

  /** `kernel` over `w`'s operands, stored in the comma-separated `format`s
    * (any matrix format of `matFormats`). */
  def program(w: Workload, kernel: String, format: String): Program = {
    val fs = format.split(',').toSeq
    def mat(i: Int, name: String, m: CooMat): Storage = matFormats(fs(i))(name, m)
    def only(i: Int, f: String): Unit =
      require(fs(i) == f, s"$kernel/$format: operand ${i + 1} can only be $f")
    def prog(tp: Expr, storages: => Seq[Storage], reference: => Value,
             extraCards: Map[String, Card] = Map.empty,
             extraVals: Map[String, Value] = Map.empty) =
      new Program(kernel, fs, tp, storages, extraCards, extraVals, reference)
    kernel match {
      case "MMM" =>
        prog(Kernels.mmm, Seq(mat(0, "A", w.a), mat(1, "B", w.b)), Kernels.refMmm(w.a, w.b))
      case "SumMMM" =>
        prog(Kernels.sumMmm, Seq(mat(0, "A", w.a), mat(1, "B", w.b)),
          VNum(Kernels.refSumMmm(w.a, w.b)))
      case "BATAX" =>
        only(1, "Dense")
        prog(Kernels.batax, Seq(mat(0, "A", w.a), Formats.denseVec("X", w.x)),
          Kernels.refBatax(w.beta, w.a, w.x),
          Map("beta" -> Card.scalar), Map("beta" -> VNum(w.beta)))
      case "TTM" =>
        only(0, "CSF")
        prog(Kernels.ttm, Seq(Formats.csf("A", w.a3), mat(1, "B", w.bTtm)),
          Kernels.refTtm(w.a3, w.bTtm))
      case "MTTKRP" =>
        only(0, "CSF")
        prog(Kernels.mttkrp,
          Seq(Formats.csf("A", w.a3), mat(1, "B", w.bMk), mat(2, "C", w.cMk)),
          Kernels.refMttkrp(w.a3, w.bMk, w.cMk))
    }
  }

  /** Every kernel over every candidate format combination, in Table 3's order. */
  def programs(w: Workload): Seq[Program] =
    candidates.flatMap { case (k, fs) => fs.map(program(w, k, _)) }

  /** The programs Table 4 compiles: STOREL's format pick in the paper's
    * Table 3 (`paperFormats`), in Table 4's kernel order. */
  def table4(w: Workload): Seq[Program] = {
    val all = programs(w)
    Seq("BATAX", "SumMMM", "MTTKRP", "MMM", "TTM").map { k =>
      all.find(p => p.kernel == k && p.format == paperFormats((k, "STOREL"))).get
    }
  }

  final case class Cell(kernel: String, system: String, format: String,
                        timeMs: Double, ok: Boolean)

  /** Per-kernel per-system best cell (argmin over candidate formats). Each
    * system's result is timed as the system returns it; STOREL, the Taco
    * model, DuckDB and Spark SQL are then compared entry by entry with the
    * program's reference, the library baselines by checksum. The engines
    * optimize under `Optimizer.Config()`, on `defaultWorkload()`. */
  def run(spark: SparkSession, log: String => Unit = _ => ()): Seq[Cell] = {
    val w = defaultWorkload()
    val cfg = Optimizer.Config()
    val grid = programs(w)
    def reference(kernel: String): Value = grid.find(_.kernel == kernel).get.reference
    // the relational systems store every operand as a COO relation
    def coo(kernel: String): String =
      Seq.fill(grid.find(_.kernel == kernel).get.formats.size)("COO").mkString(",")

    def cell(kernel: String, system: String, format: String,
             t: Double, ok: Boolean): Cell = {
      val c = Cell(kernel, system, format, t, ok)
      log(f"  $kernel%-7s $system%-9s $format%-15s ${t}%8.1f ms  ok=${c.ok}")
      c
    }

    // times `result`, then turns it into a `Value` untimed and checks it
    def timed[R](kernel: String, system: String, format: String)(result: => R)(
        value: R => Value): Cell = {
      val (r, t) = Bench.timeAdaptive(result)
      cell(kernel, system, format, t, Value.deepEq(value(r), reference(kernel)))
    }

    // ---- STOREL / TacoLike over candidate formats -------------------------
    def engineRun(system: String, p: Program): Cell = {
      val plan =
        if (system == "STOREL") Optimizer.optimize(p.tp, p.storages, p.extraCards, cfg).plan
        else {
          // Taco model: fusion + physical lowering, no factorization
          val composed = Optimizer.compose(p.tp, p.storages)
          Optimizer.saturateRounds(composed, Rules.tacoLike,
            Optimizer.physicalStats(p.storages, p.extraCards),
            cfg.stage2, 2, cfg.params)._1
        }
      val symtab = p.symtab
      timed(p.kernel, system, p.format)(Interp.run(plan, symtab))(identity)
    }

    def bestOf(cells: Seq[Cell]): Cell = cells.filter(_.ok) match {
      case Nil => cells.minBy(_.timeMs)
      case ok => ok.minBy(_.timeMs)
    }

    // ---- library baselines: fixed formats, checksums ----------------------
    def library(kernel: String, system: String, format: String, ref: Double)(
        checksum: => Double): Cell = {
      val (cs, t) = Bench.timeAdaptive(checksum)
      cell(kernel, system, format, t, Bench.close(cs, ref))
    }
    // The Python frameworks have no sparse rank-3 tensors (footnote 3).
    def libraryCells(kernel: String): Seq[Cell] = {
      lazy val aCsr = Linalg.CSR.from(w.a)
      lazy val bCsr = Linalg.CSR.from(w.b)
      lazy val aD = Linalg.DenseMat.from(w.a)
      lazy val bD = Linalg.DenseMat.from(w.b)
      kernel match {
        case "MMM" =>
          val ref = Systems.Ref.mmm(w.a, w.b)
          Seq(library(kernel, "SciPyLike", "CSR,CSR", ref)(Systems.SciPyLike.mmm(aCsr, bCsr)),
            library(kernel, "NumPyLike", "Dense,Dense", ref)(Systems.NumPyLike.mmm(aD, bD)),
            library(kernel, "TorchLike", "CSR,Dense", ref)(Systems.TorchLike.mmm(aCsr, bD)))
        case "SumMMM" =>
          val ref = Systems.Ref.sumMmm(w.a, w.b)
          Seq(library(kernel, "SciPyLike", "CSR,CSR", ref)(Systems.SciPyLike.sumMmm(aCsr, bCsr)),
            library(kernel, "NumPyLike", "Dense,Dense", ref)(Systems.NumPyLike.sumMmm(aD, bD)),
            library(kernel, "TorchLike", "CSR,Dense", ref)(Systems.TorchLike.sumMmm(aCsr, bD)))
        case "BATAX" =>
          val ref = Systems.Ref.batax(w.beta, w.a, w.x)
          val aT = aCsr.transpose; val aDT = aD.transpose
          Seq(library(kernel, "SciPyLike", "CSR,Dense", ref)(
              Systems.SciPyLike.batax(w.beta, aCsr, aT, w.x)),
            library(kernel, "NumPyLike", "Dense,Dense", ref)(
              Systems.NumPyLike.batax(w.beta, aD, aDT, w.x)),
            library(kernel, "TorchLike", "CSR,Dense", ref)(
              Systems.TorchLike.batax(w.beta, aCsr, aT, w.x)))
        case _ => Nil
      }
    }

    val out = Seq.newBuilder[Cell]
    grid.map(_.kernel).distinct.foreach { k =>
      log(k)
      val ps = grid.filter(_.kernel == k)
      out += bestOf(ps.map(engineRun("STOREL", _)))
      out += bestOf(ps.map(engineRun("TacoLike", _)))
      out ++= libraryCells(k)
    }

    // ---- DuckDB (real, via JDBC) and Spark SQL (our extra relational row):
    // both run each kernel's one SQL statement over the same COO relations
    val relations = RelKernels.relations(w)
    val queries = RelKernels.Sql.byKernel(w.beta)
    def relational(system: String)(query: String => Seq[(Vector[Long], Double)]): Unit = {
      log(system)
      grid.map(_.kernel).distinct.foreach { k =>
        out += timed(k, system, coo(k))(query(queries(k)))(Value.fromCoo)
      }
    }
    locally {
      val db = DuckKernels.open()
      try { db.load(relations); relational("DuckDB")(db.query) } finally db.close()
    }
    RelKernels.register(spark, relations)
    relational("SparkSQL")(q => RelKernels.rows(spark.sql(q)))

    out.result()
  }

  /** The paper's Table 3 best-format entries, for side-by-side diffing. */
  val paperFormats: Map[(String, String), String] = Map(
    ("MMM", "STOREL") -> "CSR,CSR",
    ("SumMMM", "STOREL") -> "CSC,CSR",
    ("BATAX", "STOREL") -> "CSR,Dense",
    ("TTM", "STOREL") -> "CSF,CSC",
    ("MTTKRP", "STOREL") -> "CSF,CSR,CSC",
    ("MMM", "TacoLike") -> "CSR,CSR",
    ("SumMMM", "TacoLike") -> "CSC,CSR",
    ("BATAX", "TacoLike") -> "CSR,Dense",
    ("TTM", "TacoLike") -> "CSF,CSR",
    ("MTTKRP", "TacoLike") -> "CSF,CSR,CSC",
    ("MMM", "SciPyLike") -> "CSR,CSR",
    ("SumMMM", "SciPyLike") -> "CSR,CSR",
    ("BATAX", "SciPyLike") -> "CSR,Dense",
    ("MMM", "NumPyLike") -> "Dense,Dense",
    ("SumMMM", "NumPyLike") -> "Dense,Dense",
    ("BATAX", "NumPyLike") -> "Dense,Dense",
    ("MMM", "TorchLike") -> "CSR,Dense",
    ("SumMMM", "TorchLike") -> "CSR,Dense",
    ("BATAX", "TorchLike") -> "CSR,Dense",
    ("MMM", "DuckDB") -> "COO,COO",
    ("SumMMM", "DuckDB") -> "COO,COO",
    ("BATAX", "DuckDB") -> "COO,COO",
    ("TTM", "DuckDB") -> "COO,COO",
    ("MTTKRP", "DuckDB") -> "COO,COO,COO")

  def render(cells: Seq[Cell]): String =
    Bench.table(
      Seq("Kernel", "System", "Best format (ours)", "Paper format", "Time(ms)", "Result OK"),
      cells.map(c => Seq(c.kernel, c.system, c.format,
        paperFormats.getOrElse((c.kernel, c.system), "-"),
        Bench.ms(c.timeMs), c.ok.toString)))
}
