package repro.meas

/** Tiny benchmarking helpers shared by `jobs/` and `bench/`. */
object Bench {

  /** Median wall-clock of `reps` runs (after warmup), in ms, plus
    * the last result, for validation. */
  def timeMedian[A](reps: Int = 5)(f: => A): (A, Double) = {
    f; f; f // warmup (JIT)
    val times = new Array[Double](reps)
    var last: A = null.asInstanceOf[A]
    var i = 0
    while (i < reps) {
      val t0 = System.nanoTime()
      last = f
      times(i) = (System.nanoTime() - t0) / 1e6
      i += 1
    }
    java.util.Arrays.sort(times)
    (last, times(reps / 2))
  }

  /** Adaptive timing: one warmup-and-measure run; if it is fast, take
    * the median of three more. Keeps slow interpreter configurations
    * from quadrupling bench wall-clock. */
  def timeAdaptive[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val first = f
    val t1 = (System.nanoTime() - t0) / 1e6
    if (t1 > 1000.0) (first, t1)
    else timeMedian(5)(f)
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

  /** Relative agreement check for checksums. */
  def close(a: Double, b: Double, tol: Double = 1e-6): Boolean =
    math.abs(a - b) <= tol * math.max(1.0, math.max(a.abs, b.abs))
}
