package repro.meas

/** Tiny benchmarking helpers shared by `jobs/` and `bench/`. */
object Bench {

  /** Median wall-clock of `reps` runs (after warmup), in ms, plus
    * the last result, for validation. */
  def timeMedian[A](reps: Int = 5)(f: => A): (A, Double) = {
    f; f; f // warmup (JIT)
    median(reps, 0.0)(f)
  }

  /** Median wall-clock of at least `reps` runs that together take at
    * least `minMs`, plus the last result. */
  private def median[A](reps: Int, minMs: Double)(f: => A): (A, Double) = {
    val times = scala.collection.mutable.ArrayBuffer.empty[Double]
    var last: A = null.asInstanceOf[A]
    val start = System.nanoTime()
    while (times.size < reps || (System.nanoTime() - start) / 1e6 < minMs) {
      val t0 = System.nanoTime()
      last = f
      times += (System.nanoTime() - t0) / 1e6
    }
    (last, times.sorted.apply(times.size / 2))
  }

  /** Adaptive timing. A first run over 1 s is the time, which keeps slow
    * interpreter configurations from multiplying bench wall-clock. A
    * faster cell runs in rounds (five runs and 100 ms at least) until five
    * rounds in a row fail to lower the best round median by 5%, so the JIT
    * has compiled what the cell runs, or until 3 s have passed; the time
    * is the best round median. */
  def timeAdaptive[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val first = f
    val t1 = (System.nanoTime() - t0) / 1e6
    if (t1 > 1000.0) (first, t1)
    else {
      val deadline = t0 + 3000L * 1000000L
      var last = first
      var best = Double.MaxValue
      var stale = 0
      while (stale < 5 && System.nanoTime() < deadline) {
        val (r, m) = median(5, 100.0)(f)
        last = r
        if (m < best * 0.95) { best = m; stale = 0 } else stale += 1
      }
      (last, best)
    }
  }

  /** Fixed-width ASCII table. */
  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(c => all.map(_(c).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (s, w) => s.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("+-", "-+-", "-+")
    (Seq(sep, fmt(header), sep) ++ rows.map(fmt) :+ sep).mkString("\n")
  }

  def ms(d: Double): String = f"$d%.1f"

  /** Relative agreement of checksums, to within 1e-6. */
  def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-6 * math.max(1.0, math.max(a.abs, b.abs))
}
