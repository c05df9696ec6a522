package repro.baselines

import repro.storage.CooMat
import Linalg._

/** Baseline tensor systems, modeled after the comparators of Sec. 6
  * (SciPy, NumPy, PyTorch/TensorFlow): each kernel is a composition of
  * the library's primitives with materialized intermediates. Every
  * method returns a checksum of the result so timing cannot be
  * dead-code-eliminated and results can be cross-checked. Kernels a
  * system cannot express (e.g. sparse rank-3 tensors in the Python
  * frameworks, footnote 3) return None.
  *
  * The Taco baseline is not here: it shares STOREL's engine but uses the
  * fusion-only rule set (`Rules.tacoLike`) — see `repro.meas`.
  */
object Systems {

  def checksum(d: DenseMat): Double = d.sumAll
  def checksum(c: CSR): Double = c.sumAll
  def checksum(x: Array[Double]): Double = { var s = 0.0; var i = 0; while (i < x.length) { s += x(i); i += 1 }; s }

  /** SciPy: optimized sparse primitives (CSR), materialized composition. */
  object SciPyLike {
    def mmm(a: CSR, b: CSR): Double = checksum(a.mm(b))
    /** ΣMMM — SciPy has no fused sum-of-product: materialize then sum. */
    def sumMmm(a: CSR, b: CSR): Double = a.mm(b).sumAll
    /** BATAX hand-optimized as β·Aᵀ(Ax) (the paper's SciPy plan). */
    def batax(beta: Double, a: CSR, aT: CSR, x: Array[Double]): Double = {
      val t = a.mv(x)
      val q = aT.mv(t)
      var s = 0.0; var i = 0
      while (i < q.length) { s += beta * q(i); i += 1 }
      s
    }
  }

  /** NumPy: dense-only primitives (BLAS-style loops). */
  object NumPyLike {
    def mmm(a: DenseMat, b: DenseMat): Double = checksum(a.mm(b))
    def sumMmm(a: DenseMat, b: DenseMat): Double = a.mm(b).sumAll
    def batax(beta: Double, a: DenseMat, aT: DenseMat, x: Array[Double]): Double = {
      val t = a.mv(x)
      val q = aT.mv(t)
      var s = 0.0; var i = 0
      while (i < q.length) { s += beta * q(i); i += 1 }
      s
    }
  }

  /** PyTorch/TensorFlow: only sparse·dense products (footnote 3), so the
    * dense operand and all intermediates are dense. */
  object TorchLike {
    def mmm(a: CSR, bDense: DenseMat): Double = checksum(a.mmDense(bDense))
    def sumMmm(a: CSR, bDense: DenseMat): Double = a.mmDense(bDense).sumAll
    /** Hand-optimized BATAX (as benchmarked in the paper). */
    def batax(beta: Double, a: CSR, aT: CSR, x: Array[Double]): Double =
      SciPyLike.batax(beta, a, aT, x)
  }

  /** Reference checksums from the ground-truth kernels, for validation. */
  object Ref {
    def mmm(a: CooMat, b: CooMat): Double =
      repro.exec.Value.toCoo(repro.kernels.Kernels.refMmm(a, b)).map(_._2).sum
    def sumMmm(a: CooMat, b: CooMat): Double = repro.kernels.Kernels.refSumMmm(a, b)
    def batax(beta: Double, a: CooMat, x: Array[Double]): Double =
      repro.exec.Value.toCoo(repro.kernels.Kernels.refBatax(beta, a, x)).map(_._2).sum
  }
}
