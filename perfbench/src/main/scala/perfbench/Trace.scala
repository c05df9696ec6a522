package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.{AtomicLong, AtomicReference}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** What the benchmark reads from the JVM and the OS, outside the code
  * under test. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def cpuNs(t: Thread): Long = threads.getThreadCpuTime(t.getId)

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  /** (collections, collection time in ms), summed over all collectors. */
  def gcTotals(): (Long, Long) =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foldLeft((0L, 0L)) {
      case ((n, ms), gc) => (n + math.max(0L, gc.getCollectionCount), ms + math.max(0L, gc.getCollectionTime))
    }

  /** Peak resident set size of this process (VmHWM), in MB. */
  def peakRssMb(): Double = {
    val src = scala.io.Source.fromFile("/proc/self/status")
    try src.getLines().collectFirst {
      case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024.0
    }.getOrElse(Double.NaN)
    finally src.close()
  }

  def options: Seq[String] = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / (1024.0 * 1024.0)
}

/** Busy time of the calling thread from its start: the thread's CPU time
  * plus the collector's pauses, which the serial collector spends on a
  * thread of its own. Unlike wall-clock time it leaves out time in which
  * the thread was ready but not running: on a virtual machine whose host
  * takes CPU away from it, that time is the main source of noise between
  * runs. The benchmark does its work on one thread at a time, so the
  * pauses in an interval are the work's own. */
final class Busy private (cpu0: Long, gc0: Long) {
  def cpuMs: Double = (Jvm.cpuNs(Thread.currentThread()) - cpu0) / 1e6
  def gcMs: Double = (Jvm.gcTotals()._2 - gc0).toDouble
  def ms: Double = cpuMs + gcMs
}

object Busy {
  def start(): Busy = new Busy(Jvm.cpuNs(Thread.currentThread()), Jvm.gcTotals()._2)
}

/** Outcome of work run under a deadline. */
sealed trait Outcome[+A]
final case class Done[A](value: A) extends Outcome[A]
final case class Failed(error: Throwable) extends Outcome[Nothing]
case object Overrun extends Outcome[Nothing]

object Deadline {

  /** Stack of the worker thread: cost-based extraction recurses through
    * deep e-graphs (the sbt build runs its tests with -Xss256m). */
  val StackBytes: Long = 512L << 20

  /** Runs `f` on a fresh thread and waits at most `ms` for it; returns
    * the outcome and the CPU time the thread used, in ms. A thread still
    * running at the deadline is stopped, and this call returns only once
    * it has ended, so its runaway work cannot overlap whatever the caller
    * times next. */
  @annotation.nowarn("cat=deprecation")
  def run[A](ms: Long)(f: => A): (Outcome[A], Double) = {
    val result = new AtomicReference[Outcome[A]](Overrun)
    val cpuNs = new AtomicLong(0L)
    val body: Runnable = () =>
      try result.set(Done(f))
      catch {
        case e: StackOverflowError => result.set(Failed(e))
        case e: OutOfMemoryError => result.set(Failed(e))
        case NonFatal(e) => result.set(Failed(e))
      } finally cpuNs.set(Jvm.cpuNs(Thread.currentThread()))
    val worker = new Thread(null, body, "perfbench-worker", StackBytes)
    worker.start()
    worker.join(ms)
    if (worker.isAlive) {
      val used = Jvm.cpuNs(worker)
      worker.stop()
      worker.join()
      (Overrun, used / 1e6)
    } else (result.get(), cpuNs.get() / 1e6)
  }
}

/** A timed region of one traced pipeline. `layer` is one of the layers
  * the benchmark reports: storage, core, egraph, exec, check, or bench
  * for the pipeline root. */
final class Span(val name: String, val layer: String, val parent: Span) {
  val start: Long = System.nanoTime()
  var end: Long = -1L
  /** Bytes allocated by the span's thread inside it, where measured. */
  var allocBytes: Long = -1L
  val children: ArrayBuffer[Span] = ArrayBuffer.empty

  def ms: Double = ((if (end < 0) System.nanoTime() else end) - start) / 1e6
  def selfMs: Double = ms - children.iterator.map(_.ms).sum
  def all: Iterator[Span] = Iterator.single(this) ++ children.iterator.flatMap(_.all)
}

/** Span recorder for one pipeline. Spans nest by call structure; they
  * may be opened on a worker thread of [[Deadline.run]], which hands
  * control back only after it has ended, so one cursor suffices. A
  * worker stopped at its deadline closes its spans on the way out. */
final class Tracer(rootName: String) {
  val root = new Span(rootName, "bench", null)
  @volatile private var current: Span = root
  /** The span that ended most recently. */
  @volatile var lastClosed: Span = root

  def span[A](name: String, layer: String, alloc: Boolean = false)(f: => A): A = {
    val s = new Span(name, layer, current)
    current.children += s
    current = s
    val a0 = if (alloc) Jvm.allocatedBytes() else 0L
    try f
    finally {
      if (alloc) s.allocBytes = Jvm.allocatedBytes() - a0
      s.end = System.nanoTime()
      current = s.parent
      lastClosed = s
    }
  }

  def close(): Unit = root.end = System.nanoTime()

  /** Self time per layer, in ms. */
  def selfByLayer: Map[String, Double] =
    root.all.toSeq.groupBy(_.layer).map { case (l, ss) => l -> ss.map(_.selfMs).sum }

  def callsByLayer: Map[String, Int] =
    root.all.toSeq.groupBy(_.layer).map { case (l, ss) => l -> ss.size }
}
