package perfbench

import repro.baselines.{Linalg, Systems}
import repro.core._
import repro.egraph.SatConfig
import repro.exec._
import repro.kernels.Kernels
import repro.storage._

/** One input tensor of a program: its logical name, its storage format,
  * and the `Formats.*` call that materializes it from COO. */
final case class Operand(tensor: String, format: String, build: () => Storage)

/** A tensor program over fixed storage formats, with the reference
  * result it must produce and, where SciPyLike can express the kernel,
  * a call of that baseline. */
final case class Program(
    kernel: String,
    tp: Expr,
    operands: Seq[Operand],
    reference: Value,
    extraCards: Map[String, Card] = Map.empty,
    extraVals: Map[String, Value] = Map.empty,
    scipy: Option[() => Double] = None) {
  val name: String = s"$kernel/${operands.map(_.format).mkString(",")}"
}

/** A benchmark workload. The whole pipeline of every program is repeated
  * pass by pass; with `closedLoop`, a fixed number of passes is followed
  * by repeated executions of the last pass' plans. */
final case class Workload(
    name: String,
    programs: Seq[Program],
    cfg: Optimizer.Config,
    deadlineMs: Long,
    closedLoop: Boolean,
    shapes: Seq[String])

object Workloads {

  val names: Seq[String] = Seq("compile-table4", "sweep-formats", "exec-scaled")

  /** Table 4's programs under a fixed search budget. The default config
    * stops stage-2 searches on a 5 s wall-clock timeout (BATAX alone then
    * optimizes for over a minute), so where the search ends would depend
    * on machine speed; a node and iteration budget with a timeout that is
    * never reached makes the search the same on every machine. */
  val table4Budget: Optimizer.Config = {
    val sat = SatConfig(maxIters = 20, maxNodes = 1500, timeoutMs = 60000)
    Optimizer.Config(stage1 = sat, stage2 = sat)
  }

  private val matFormats: Map[String, (String, CooMat) => Storage] = Map(
    "CSR" -> Formats.csr, "CSC" -> Formats.csc, "Dense" -> Formats.denseMat,
    "COO" -> Formats.coo, "Trie" -> Formats.trie, "DCSR" -> Formats.dcsr,
    "Hash" -> Formats.dok)

  private def mat(tensor: String, format: String, m: CooMat): Operand =
    Operand(tensor, format, () => matFormats(format)(tensor, m))

  private def csf(tensor: String, t: Coo3): Operand =
    Operand(tensor, "CSF", () => Formats.csf(tensor, t))

  private def shape(name: String, m: CooMat): String = s"$name ${m.m}x${m.n} nnz=${m.nnz}"
  private def shape(name: String, t: Coo3): String = s"$name ${t.d1}x${t.d2}x${t.d3} nnz=${t.nnz}"

  /** The operands of `Table3.defaultWorkload(seed)` (the Table 3 / Table 4
    * inputs), generated the same way. */
  final case class Table3Data(
      a: CooMat, b: CooMat, x: Array[Double], beta: Double,
      a3: Coo3, bTtm: CooMat, bMk: CooMat, cMk: CooMat)

  def table3Data(seed: Long): Table3Data = {
    val m = 300
    Table3Data(
      a = CooMat.random(m, m, (m * m * 0.01).toInt, seed),
      b = CooMat.random(m, 250, (m * 250 / 32.0).toInt, seed + 1),
      x = Array.tabulate(m)(i => 0.3 + (i % 11) * 0.07),
      beta = 2.5,
      a3 = Coo3.random(50, 50, 50, 6000, seed + 2),
      bTtm = CooMat.random(25, 50, (25 * 50 / 32.0).toInt + 1, seed + 3),
      bMk = CooMat.random(50, 25, (50 * 25 / 32.0).toInt + 1, seed + 4),
      cMk = CooMat.random(50, 25, (50 * 25 / 32.0).toInt + 1, seed + 5))
  }

  private def scipyMmm(a: CooMat, b: CooMat): () => Double = {
    lazy val (ac, bc) = (Linalg.CSR.from(a), Linalg.CSR.from(b))
    () => Systems.SciPyLike.mmm(ac, bc)
  }

  private def scipySumMmm(a: CooMat, b: CooMat): () => Double = {
    lazy val (ac, bc) = (Linalg.CSR.from(a), Linalg.CSR.from(b))
    () => Systems.SciPyLike.sumMmm(ac, bc)
  }

  private def mmm(a: CooMat, b: CooMat, fa: String, fb: String, ref: Value): Program =
    Program("MMM", Kernels.mmm, Seq(mat("A", fa, a), mat("B", fb, b)), ref,
      scipy = Some(scipyMmm(a, b)))

  private def sumMmm(a: CooMat, b: CooMat, fa: String, fb: String, ref: Value): Program =
    Program("SumMMM", Kernels.sumMmm, Seq(mat("A", fa, a), mat("B", fb, b)), ref,
      scipy = Some(scipySumMmm(a, b)))

  /** Generates the inputs and reference results of workload `name` from
    * `seed`; this is the benchmark's set-up. */
  def build(name: String, seed: Long): Workload = name match {
    case "compile-table4" =>
      val w = table3Data(seed)
      val bataxScipy = {
        lazy val (ac, at) = { val c = Linalg.CSR.from(w.a); (c, c.transpose) }
        () => Systems.SciPyLike.batax(w.beta, ac, at, w.x)
      }
      val programs = Seq(
        Program("BATAX", Kernels.batax,
          Seq(mat("A", "CSR", w.a), Operand("X", "Dense", () => Formats.denseVec("X", w.x))),
          Kernels.refBatax(w.beta, w.a, w.x),
          extraCards = Map("beta" -> Card.scalar), extraVals = Map("beta" -> VNum(w.beta)),
          scipy = Some(bataxScipy)),
        sumMmm(w.a, w.b, "CSC", "CSR", VNum(Kernels.refSumMmm(w.a, w.b))),
        Program("MTTKRP", Kernels.mttkrp,
          Seq(csf("A", w.a3), mat("B", "CSR", w.bMk), mat("C", "CSC", w.cMk)),
          Kernels.refMttkrp(w.a3, w.bMk, w.cMk)),
        mmm(w.a, w.b, "CSR", "CSR", Kernels.refMmm(w.a, w.b)),
        Program("TTM", Kernels.ttm, Seq(csf("A", w.a3), mat("B", "CSC", w.bTtm)),
          Kernels.refTtm(w.a3, w.bTtm)))
      Workload(name, programs, table4Budget, deadlineMs = 30000, closedLoop = false,
        Seq(shape("A", w.a), shape("B", w.b), s"X ${w.x.length}", shape("A3", w.a3),
          shape("B_ttm", w.bTtm), shape("B_mttkrp", w.bMk), shape("C_mttkrp", w.cMk)))

    case "sweep-formats" =>
      val w = table3Data(seed)
      val combos = Seq("CSR" -> "CSR", "CSC" -> "CSR", "Dense" -> "Dense", "COO" -> "COO",
        "Trie" -> "Trie", "DCSR" -> "DCSR", "Hash" -> "Hash")
      val refMmm = Kernels.refMmm(w.a, w.b)
      val refSum = VNum(Kernels.refSumMmm(w.a, w.b))
      val programs =
        combos.map { case (fa, fb) => mmm(w.a, w.b, fa, fb, refMmm) } ++
        combos.map { case (fa, fb) => sumMmm(w.a, w.b, fa, fb, refSum) }
      // Default config: its wall-clock-bounded searches, and the known
      // SumMMM/Trie,Trie extraction runaway, are what this sweep covers.
      Workload(name, programs, Optimizer.Config(), deadlineMs = 20000, closedLoop = false,
        Seq(shape("A", w.a), shape("B", w.b)))

    case "exec-scaled" =>
      val a = CooMat.random(1200, 1200, 1200 * 1200 / 100, seed)
      val b = CooMat.random(1200, 1000, 1200 * 1000 / 32, seed + 1)
      val refMmm = Kernels.refMmm(a, b)
      val refSum = VNum(Kernels.refSumMmm(a, b))
      val programs = Seq(
        mmm(a, b, "CSR", "CSR", refMmm),
        mmm(a, b, "DCSR", "DCSR", refMmm),
        sumMmm(a, b, "CSC", "CSR", refSum),
        sumMmm(a, b, "Dense", "Dense", refSum))
      Workload(name, programs, Optimizer.Config(), deadlineMs = 30000, closedLoop = true,
        Seq(shape("A", a), shape("B", b)))

    case other =>
      throw new IllegalArgumentException(
        s"unknown workload '$other' (expected one of ${names.mkString(", ")})")
  }
}
