package perfbench

import repro.core._
import repro.egraph.RunStats
import repro.exec._
import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Everything measured about one pipeline of one program: storage build
  * from COO, optimization, execution and the check of the result. */
final class Pipe(val program: Program, val pass: Int, val traced: Boolean) {
  val tracer = new Tracer(program.name)
  val rounds: ArrayBuffer[RoundRecord] = ArrayBuffer.empty
  val execMs: ArrayBuffer[Double] = ArrayBuffer.empty
  /** Executions in the closed loop that follows the passes. */
  val loopMs: ArrayBuffer[Double] = ArrayBuffer.empty
  var symtab: Map[String, Value] = Map.empty
  var storageMb = 0.0
  // Times are busy times (see [[Busy]]), in ms.
  var buildMs = 0.0
  var optimizeMs = 0.0
  var pipelineMs = 0.0
  /** CPU time of the optimizer's worker thread. */
  var workerCpuMs = 0.0
  var plan: Option[Expr] = None
  var cost: Double = Double.NaN
  /** Stage statistics as `Optimizer.optimize` returns them. */
  var stages: Option[(RunStats, RunStats)] = None
  var execAllocMb: Double = Double.NaN
  var outNnz = 0L
  var failure: Option[String] = None
  var mismatch = false
  /** Whether the traced replica produced the plan of the untraced call. */
  var replicaMatches: Option[Boolean] = None

  def ok: Boolean = failure.isEmpty && !mismatch
  def planHash: Option[String] = plan.map(Bench.hash)
  def valid: Boolean = !replicaMatches.contains(false)
}

final case class Pass(number: Int, ms: Double, busyMs: Double, gcCount: Long, gcMs: Long,
                      pipes: Seq[Pipe], untraced: Seq[Pipe])

final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      report: Option[String])

object Main {

  private val usage =
    "usage: perfbench.Main --workload NAME --seed N --seconds S --trace 0|1 [--report FILE]"

  def parse(args: Array[String]): Either[String, Args] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (args.length % 2 != 0 || kv.size * 2 != args.length) Left(usage)
    else for {
      w <- kv.get("workload").toRight(usage)
      _ <- Either.cond(Workloads.names.contains(w), (), s"unknown workload '$w' " +
        s"(expected one of ${Workloads.names.mkString(", ")})")
      seed <- kv.get("seed").flatMap(_.toLongOption).toRight(usage)
      secs <- kv.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).toRight(usage)
      trace <- kv.get("trace").filter(Set("0", "1")).toRight(usage)
    } yield Args(w, seed, secs, trace == "1", kv.get("report"))
  }

  def main(args: Array[String]): Unit = parse(args) match {
    case Left(msg) =>
      System.err.println(msg)
      sys.exit(2)
    case Right(a) =>
      val result = new Bench(a).run()
      System.out.flush()
      println(Json.render(result))
  }
}

/** One benchmark run: set-up, the timed passes, then the metrics. */
final class Bench(args: Args) {
  import Bench._

  private var windowStart = 0L
  private def windowS: Double = (System.nanoTime() - windowStart) / 1e9

  def run(): Json.Obj = {
    say(s"# workload ${args.workload} seed ${args.seed} seconds ${args.seconds} trace ${if (args.trace) 1 else 0}")
    say(f"# jvm ${Jvm.options.mkString(" ")} (max heap ${Jvm.maxHeapMb}%.0f MB)")

    // Set-up: inputs and reference results, generated several times so
    // that its time is a median rather than one sample, then one untimed
    // warm-up pass, so that timed passes do not measure JIT compilation.
    val genS = ArrayBuffer.empty[Double]
    var w: Workload = null
    for (_ <- 1 to SetupReps) {
      val b = Busy.start()
      w = Workloads.build(args.workload, args.seed)
      genS += b.ms / 1000
    }
    say(s"# data ${w.shapes.mkString("; ")}")
    say(s"# optimizer ${w.cfg}; deadline ${w.deadlineMs} ms per Optimizer.optimize")
    val warmup = runPass(w, 0, trace = false)
    val setupS = median(genS.toSeq) + warmup.busyMs / 1000
    say(f"# set-up: generation ${median(genS.toSeq)}%.4f s (median of $SetupReps), warm-up pass ${warmup.busyMs / 1000}%.3f s")

    windowStart = System.nanoTime()
    val passes = ArrayBuffer.empty[Pass]
    if (w.closedLoop) {
      for (n <- 1 to LoopPasses) passes += runPass(w, n, args.trace)
      closedLoop(passes.last.pipes)
    } else {
      do passes += runPass(w, passes.size + 1, args.trace)
      while (windowS + median(passes.map(_.ms / 1000).toSeq) <= args.seconds)
    }

    val all = (warmup +: passes.toSeq).flatMap(p => p.pipes ++ p.untraced)
    val attempted = all.size
    val failed = all.count(!_.ok)
    val correct = !all.exists(_.mismatch)
    all.filterNot(_.ok).map(p => s"${p.program.name} (pass ${p.pass}): ${p.failure.getOrElse("result differs from the reference")}")
      .distinct.foreach(m => say(s"# failed: $m"))

    val metrics =
      if (args.trace) perLayer(w, passes.toSeq, attempted, failed)
      else endToEnd(passes.toSeq, setupS)
    metrics.foreach { case (k, (v, unit)) => say(f"$k%-26s $v%14.4f $unit") }
    val metricsObj = Json.Obj(metrics.map { case (k, (v, unit)) => k -> Json.obj("value" -> v, "unit" -> unit) })

    args.report.foreach { path =>
      val f = new File(path)
      Option(f.getParentFile).foreach(_.mkdirs())
      val report = Json.obj(
        "workload" -> args.workload, "seed" -> args.seed, "seconds" -> args.seconds,
        "trace" -> args.trace, "jvm_options" -> Jvm.options, "max_heap_mb" -> Jvm.maxHeapMb,
        "shapes" -> w.shapes, "optimizer_config" -> w.cfg.toString, "deadline_ms" -> w.deadlineMs,
        "generation_s" -> genS.toSeq, "setup_s" -> setupS,
        "passes" -> (warmup +: passes.toSeq).map(passJson),
        "attempted" -> attempted, "failed" -> failed, "correct" -> correct,
        "metrics" -> metricsObj)
      Files.write(f.toPath, Json.render(report).getBytes(StandardCharsets.UTF_8))
      say(s"# report $path")
    }
    Json.obj("correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> metricsObj)
  }

  /** One pass over the workload's programs; pass 0 is the warm-up. A
    * traced pass first runs each program untraced, as the reference for
    * the replica's plan and for the cost of tracing. */
  private def runPass(w: Workload, n: Int, trace: Boolean): Pass = {
    val (gc0, gcMs0) = Jvm.gcTotals()
    val t0 = System.nanoTime()
    val busy = Busy.start()
    val pairs = w.programs.map { p =>
      val ref = if (trace) Some(pipeline(p, w, n, traced = false, reps = false)) else None
      val main = pipeline(p, w, n, traced = trace, reps = !w.closedLoop)
      ref.foreach { r =>
        if (r.plan.isDefined || main.plan.isDefined) main.replicaMatches = Some(r.plan == main.plan)
        report(r)
      }
      report(main)
      (main, ref)
    }
    val (gc1, gcMs1) = Jvm.gcTotals()
    val pipes = pairs.map(_._1)
    val untraced = pairs.flatMap(_._2)
    Pass(n, (System.nanoTime() - t0) / 1e6, busy.ms + (pipes ++ untraced).map(_.workerCpuMs).sum,
      gc1 - gc0, gcMs1 - gcMs0, pipes, untraced)
  }

  private def pipeline(p: Program, w: Workload, pass: Int, traced: Boolean, reps: Boolean): Pipe = {
    val r = new Pipe(p, pass, traced)
    val tr = r.tracer
    val busy = Busy.start()
    try {
      val storages = p.operands.map(o => tr.span(s"Formats.${o.format}", "storage")(o.build()))
      r.buildMs = busy.ms
      r.storageMb = storages.iterator.flatMap(_.symbols.valuesIterator).map(payloadBytes).sum / MB
      val gc = Busy.start()
      val (outcome, workerCpuMs) = Deadline.run(w.deadlineMs) {
        if (traced) Replica.optimize(p.tp, storages, p.extraCards, w.cfg, tr, r.rounds)
        else tr.span("Optimizer.optimize", "core") {
          val res = Optimizer.optimize(p.tp, storages, p.extraCards, w.cfg)
          r.stages = Some((res.stage1, res.stage2))
          (res.plan, res.cost)
        }
      }
      r.workerCpuMs = workerCpuMs
      r.optimizeMs = workerCpuMs + gc.gcMs
      outcome match {
        case Overrun => r.failure = Some(s"Optimizer.optimize still running at the ${w.deadlineMs} ms deadline")
        case Failed(e) => r.failure = Some(s"Optimizer.optimize threw $e")
        case Done((plan, cost)) =>
          r.plan = Some(plan)
          r.cost = cost
          r.symtab = storages.flatMap(_.symbols).toMap ++ p.extraVals
          val run = Busy.start()
          val v = tr.span("Interp.run", "exec", alloc = true)(Interp.run(plan, r.symtab))
          r.execMs += run.ms
          r.execAllocMb = tr.lastClosed.allocBytes / MB
          r.outNnz = nnz(v)
          r.mismatch = !tr.span("Value.deepEq", "check")(Value.deepEq(v, p.reference))
      }
    } catch {
      case e: StackOverflowError => r.failure = Some(s"threw $e")
      case NonFatal(e) => r.failure = Some(s"threw $e")
    }
    r.pipelineMs = busy.ms + r.workerCpuMs
    tr.close()
    if (reps && r.ok) repeat(r)
    r
  }

  /** Further executions of a finished pipeline's plan, within a small
    * time budget, so each plan's run time is a median; the last result
    * is checked too. */
  private def repeat(r: Pipe): Unit = {
    var last: Value = null
    try {
      while (r.execMs.size < MaxReps && r.execMs.sum < RepBudgetMs) last = execute(r, r.execMs)
      if (last != null && !Value.deepEq(last, r.program.reference)) r.mismatch = true
    } catch {
      case e: StackOverflowError => r.failure = Some(s"threw $e")
      case NonFatal(e) => r.failure = Some(s"threw $e")
    }
  }

  private def execute(r: Pipe, into: ArrayBuffer[Double]): Value = {
    val run = Busy.start()
    val v = Interp.run(r.plan.get, r.symtab)
    into += run.ms
    v
  }

  /** Executes every optimized plan round-robin until the measuring window
    * is spent, then checks each plan's last result. */
  private def closedLoop(pipes: Seq[Pipe]): Unit = {
    val live = pipes.filter(_.ok)
    val last = scala.collection.mutable.Map.empty[Pipe, Value]
    var cycleS = 0.0
    try {
      while (live.nonEmpty && windowS + cycleS <= args.seconds) {
        val t0 = System.nanoTime()
        live.foreach(r => last(r) = execute(r, r.loopMs))
        cycleS = (System.nanoTime() - t0) / 1e9
      }
      last.foreach { case (r, v) => if (!Value.deepEq(v, r.program.reference)) r.mismatch = true }
    } catch {
      case e: StackOverflowError => live.foreach(_.failure = Some(s"threw $e"))
      case NonFatal(e) => live.foreach(_.failure = Some(s"threw $e"))
    }
    live.foreach(r => say(f"# loop ${r.program.name}%-20s ${r.loopMs.size}%4d runs  " +
      f"p50 ${percentile(r.loopMs.toSeq, 0.5)}%9.2f ms  p90 ${percentile(r.loopMs.toSeq, 0.9)}%9.2f ms"))
  }

  private def report(r: Pipe): Unit = {
    val status = r.failure.getOrElse(if (r.mismatch) "MISMATCH" else "ok")
    val plan = r.planHash.map(h => f"plan $h cost ${r.cost}%.1f").getOrElse("no plan")
    val replica = r.replicaMatches.map(m => if (m) " replica=same" else " replica=DIFFERENT").getOrElse("")
    say(f"# pass ${r.pass} ${if (r.traced) "traced  " else "untraced"} ${r.program.name}%-20s " +
      f"build ${r.buildMs}%8.1f ms  optimize ${r.optimizeMs}%9.1f ms  " +
      f"exec ${r.execMs.headOption.getOrElse(Double.NaN)}%9.1f ms  pipeline ${r.pipelineMs}%9.1f ms  " +
      s"$plan$replica  $status")
  }

  // ---- metrics ---------------------------------------------------------

  private type Metrics = Seq[(String, (Double, String))]

  /** Execution times per program: from the closed loop where there is
    * one, otherwise from every pass. */
  private def samplesByProgram(passes: Seq[Pass]): Seq[Seq[Double]] =
    passes.flatMap(_.pipes).groupBy(_.program.name).values.toSeq
      .map { ps => val loop = ps.flatMap(_.loopMs); if (loop.nonEmpty) loop else ps.flatMap(_.execMs) }
      .filter(_.nonEmpty)

  private def endToEnd(passes: Seq[Pass], setupS: Double): Metrics = {
    val samples = samplesByProgram(passes)
    say(s"# exec samples per plan: ${samples.map(_.size).mkString(", ")}")
    Seq(
      "setup_s" -> (setupS, "s"),
      "compile_s" -> (median(passes.map(_.pipes.map(_.optimizeMs).sum / 1000)), "s"),
      "pipeline_s" -> (median(passes.map(_.pipes.map(_.pipelineMs).sum / 1000)), "s"),
      "exec_ms_p50" -> (geomean(samples.map(percentile(_, 0.5))), "ms"),
      "exec_ms_p90" -> (geomean(samples.map(percentile(_, 0.9))), "ms"),
      "peak_rss_mb" -> (Jvm.peakRssMb(), "MB"))
  }

  private def perLayer(w: Workload, passes: Seq[Pass], attempted: Int, failed: Int): Metrics = {
    def perPass(f: Pass => Double): Double = median(passes.map(f))
    def spans(p: Pass, name: String): Double =
      p.pipes.flatMap(_.tracer.root.all.filter(_.name == name)).map(_.ms).sum
    def rounds(p: Pass): Seq[RoundRecord] = p.pipes.flatMap(_.rounds)
    val pipes = passes.flatMap(_.pipes)
    val planned = pipes.filter(_.plan.isDefined)
    val distinct = passes.flatMap(p => p.pipes ++ p.untraced).groupBy(_.program.name)
      .values.map(_.flatMap(_.planHash).distinct.size).sum
    val scipy = scipyBaselines(w)
    say(s"# baselines.scipy_ms per program: ${scipy.map { case (n, ms) => f"$n $ms%.3f" }.mkString(", ")}")
    if (w.name == "compile-table4") naiveBaselines(passes.last.pipes)
    val layers = Seq("storage", "core", "egraph", "exec", "check", "bench")

    Seq(
      "egraph.saturate_ms" -> (perPass(spans(_, "Saturate.run")), "ms"),
      "egraph.iters" -> (perPass(rounds(_).map(_.stats.iters).sum.toDouble), "count"),
      "egraph.nodes" -> (perPass(rounds(_).map(_.stats.nodes).sum.toDouble), "count"),
      "egraph.classes" -> (perPass(rounds(_).map(_.stats.classes).sum.toDouble), "count"),
      "egraph.memos" -> (perPass(rounds(_).map(_.stats.memos).sum.toDouble), "count"),
      "egraph.memos_per_s" -> (perPass(p =>
        rounds(p).map(_.stats.memos).sum / math.max(1e-9, spans(p, "Saturate.run") / 1000)), "1/s"),
      "egraph.alloc_mb" -> (perPass(rounds(_).map(_.saturateAllocMb).sum), "MB")) ++
    Replica.stopReasons.map(s =>
      s"egraph.stop.$s" -> (perPass(rounds(_).count(_.stop == s).toDouble), "count")) ++
    Seq(
      "core.stage1_ms" -> (perPass(spans(_, "stage1")), "ms"),
      "core.stage2_ms" -> (perPass(spans(_, "stage2")), "ms"),
      "core.extract_ms" -> (perPass(spans(_, "CostModel.extract")), "ms"),
      "core.rounds" -> (perPass(rounds(_).size.toDouble), "count"),
      "core.plan_cost" -> (geomean(planned.map(_.cost)), "cost"),
      "core.plan_nodes" -> (perPass(_.pipes.flatMap(_.plan).map(_.size).sum.toDouble), "count"),
      "core.plan_distinct" -> (distinct.toDouble, "count"),
      "core.replica_mismatch" -> (pipes.count(!_.valid).toDouble, "count"),
      "storage.build_ms" -> (perPass(_.pipes.map(_.buildMs).sum), "ms"),
      "storage.phys_mb" -> (perPass(_.pipes.map(_.storageMb).sum), "MB"),
      "exec.interp_ms" -> (samplesByProgram(passes).map(percentile(_, 0.5)).sum, "ms"),
      "exec.alloc_mb" -> (perPass(_.pipes.map(_.execAllocMb).filterNot(_.isNaN).sum), "MB"),
      "exec.out_nnz" -> (perPass(_.pipes.map(_.outNnz).sum.toDouble), "count"),
      "jvm.gc_ms" -> (perPass(_.gcMs.toDouble), "ms"),
      "jvm.gc_count" -> (perPass(_.gcCount.toDouble), "count"),
      "baselines.scipy_ms" -> (geomean(scipy.map(_._2)), "ms")) ++
    layers.map(l => s"span.$l.self_ms" -> (perPass(_.pipes.map(_.tracer.selfByLayer.getOrElse(l, 0.0)).sum), "ms")) ++
    Seq(
      "span.coverage_min" -> (pipes.map(p => 1 - p.tracer.root.selfMs / p.tracer.root.ms).min, "ratio"),
      "trace.overhead_ms" -> (perPass(p =>
        p.pipes.map(_.pipelineMs).sum - p.untraced.map(_.pipelineMs).sum), "ms"),
      "bench.failed_frac" -> (failed.toDouble / attempted, "ratio"))
  }

  /** SciPyLike time for each program whose kernel it implements: the
    * median of several calls after a warm-up call. */
  private def scipyBaselines(w: Workload): Seq[(String, Double)] =
    w.programs.flatMap(p => p.scipy.map { f =>
      f()
      p.name -> median((1 to 5).map { _ =>
        val run = Busy.start(); f(); run.ms
      })
    })

  /** Run time of each program's unoptimized plan (its tensor program
    * composed with the storage mappings), reported beside the plan's. */
  private def naiveBaselines(pipes: Seq[Pipe]): Unit = pipes.filter(_.ok).foreach { r =>
    val p = r.program
    val naive = Optimizer.compose(p.tp, p.operands.map(_.build()))
    Deadline.run(NaiveDeadlineMs) {
      val run = Busy.start()
      val v = Interp.run(naive, r.symtab)
      (run.ms, Value.deepEq(v, p.reference))
    }._1 match {
      case Done((ms, same)) => say(f"# core.naive_exec_ms ${p.name}%-20s $ms%9.2f ms (plan ${percentile(r.execMs.toSeq, 0.5)}%.2f ms) result ${if (same) "ok" else "MISMATCH"}")
      case other => say(s"# core.naive_exec_ms ${p.name}: $other")
    }
  }

  private def passJson(p: Pass): Json.Obj = Json.obj(
    "pass" -> p.number, "wall_ms" -> p.ms, "busy_ms" -> p.busyMs, "gc_count" -> p.gcCount, "gc_ms" -> p.gcMs,
    "programs" -> p.pipes.map(pipeJson),
    "untraced_reference" -> p.untraced.map(pipeJson))

  private def pipeJson(r: Pipe): Json.Obj = Json.obj(
    "program" -> r.program.name, "traced" -> r.traced,
    "outcome" -> r.failure.getOrElse(if (r.mismatch) "mismatch" else "ok"),
    "valid" -> r.valid, "replica_matches" -> r.replicaMatches,
    "build_ms" -> r.buildMs, "optimize_ms" -> r.optimizeMs, "pipeline_ms" -> r.pipelineMs,
    "exec_ms" -> r.execMs.toSeq, "loop_exec_ms" -> r.loopMs.toSeq, "exec_alloc_mb" -> r.execAllocMb, "out_nnz" -> r.outNnz,
    "storage_mb" -> r.storageMb,
    "plan_hash" -> r.planHash, "plan_cost" -> r.cost, "plan_nodes" -> r.plan.map(_.size),
    "stages" -> r.stages.map { case (s1, s2) => Seq(statsJson(s1), statsJson(s2)) },
    "rounds" -> r.rounds.map(rr => Json.obj(
      "stage" -> rr.stage, "round" -> rr.round, "stop" -> rr.stop,
      "saturate_ms" -> rr.saturateMs, "alloc_mb" -> rr.saturateAllocMb,
      "extract_ms" -> rr.extractMs, "cost" -> rr.cost, "stats" -> statsJson(rr.stats))),
    "span_self_ms" -> r.tracer.selfByLayer, "span_calls" -> r.tracer.callsByLayer,
    "spans" -> r.tracer.root.all.map(s => Json.obj(
      "name" -> s.name, "layer" -> s.layer, "ms" -> s.ms, "self_ms" -> s.selfMs,
      "alloc_mb" -> (if (s.allocBytes < 0) None else Some(s.allocBytes / MB)))).toSeq)

  private def statsJson(s: RunStats): Json.Obj = Json.obj(
    "time_ms" -> s.timeMs, "iters" -> s.iters, "nodes" -> s.nodes, "classes" -> s.classes,
    "memos" -> s.memos, "saturated" -> s.saturated)
}

object Bench {
  val SetupReps = 5
  /** Passes of a closed-loop workload before its loop. */
  val LoopPasses = 3
  /** Executions per plan per pass: at most this many, and no new one once
    * the plan has run this long in the pass. */
  val MaxReps = 25
  val RepBudgetMs = 500.0
  val NaiveDeadlineMs = 20000L
  val MB: Double = 1024.0 * 1024.0

  def say(s: String): Unit = println(s)

  def hash(e: Expr): String = {
    val d = java.security.MessageDigest.getInstance("SHA-256")
      .digest(e.toString.getBytes(StandardCharsets.UTF_8))
    d.take(6).map(b => f"${b & 0xff}%02x").mkString
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Median for q = 0.5 (mean of the middle two), nearest rank otherwise. */
  def percentile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      if (q == 0.5) (s((s.length - 1) / 2) + s(s.length / 2)) / 2
      else s(math.max(0, math.ceil(q * s.length).toInt - 1))
    }

  def geomean(xs: Seq[Double]): Double = {
    val ys = xs.filter(x => x > 0 && !x.isInfinite)
    if (ys.isEmpty) Double.NaN else math.exp(ys.map(math.log).sum / ys.length)
  }

  /** Non-zero scalar entries of a result. */
  def nnz(v: Value): Long = v match {
    case VZero => 0L
    case VNum(d) => if (d != 0) 1L else 0L
    case d: VDict =>
      var n = 0L
      d.foreachEntry((_, x) => n += nnz(x))
      n
  }

  /** Estimated payload of a physical value: 8 bytes per array slot, 16
    * per hash entry, headers not counted. */
  def payloadBytes(v: Value): Double = v match {
    case d: VDenseN => 8.0 * d.a.length
    case d: VDenseL => 8.0 * d.a.length
    case d: VDenseV => 8.0 * d.a.length + d.a.iterator.map(payloadBytes).sum
    case h: VHashN => 16.0 * h.m.size
    case h: VHashV => h.m.valuesIterator.map(x => 16.0 + payloadBytes(x)).sum
    case VNum(_) => 8.0
    case VSingle(_, x) => 8.0 + payloadBytes(x)
    case _ => 0.0
  }
}
