package repro.baselines

import repro.storage.CooMat

/** Dense and sparse linear-algebra primitives — the substrate standing in
  * for the closed-source comparators' kernels (SciPy's csr routines,
  * NumPy/BLAS dense ops, PyTorch/TensorFlow sparse·dense products).
  * Each primitive materializes its result, exactly like the libraries it
  * models: composing them creates the intermediate results whose cost
  * STOREL's factorization avoids (Sec. 6.1). */
object Linalg {

  /** Row-major dense matrix. */
  final class DenseMat(val rows: Int, val cols: Int, val a: Array[Double]) {
    def apply(i: Int, j: Int): Double = a(i * cols + j)

    /** Dense·dense matmul (the NumPy/BLAS primitive, naive loops). */
    def mm(o: DenseMat): DenseMat = {
      require(cols == o.rows)
      val out = new Array[Double](rows * o.cols)
      var i = 0
      while (i < rows) {
        var k = 0
        while (k < cols) {
          val aik = a(i * cols + k)
          if (aik != 0) {
            var j = 0
            while (j < o.cols) { out(i * o.cols + j) += aik * o.a(k * o.cols + j); j += 1 }
          }
          k += 1
        }
        i += 1
      }
      new DenseMat(rows, o.cols, out)
    }

    def mv(x: Array[Double]): Array[Double] = {
      require(cols == x.length)
      val out = new Array[Double](rows)
      var i = 0
      while (i < rows) {
        var j = 0; var s = 0.0
        while (j < cols) { s += a(i * cols + j) * x(j); j += 1 }
        out(i) = s; i += 1
      }
      out
    }

    def transpose: DenseMat = {
      val out = new Array[Double](rows * cols)
      var i = 0
      while (i < rows) {
        var j = 0
        while (j < cols) { out(j * rows + i) = a(i * cols + j); j += 1 }
        i += 1
      }
      new DenseMat(cols, rows, out)
    }

    def sumAll: Double = { var s = 0.0; var i = 0; while (i < a.length) { s += a(i); i += 1 }; s }
  }

  object DenseMat {
    def from(m: CooMat): DenseMat = {
      val a = new Array[Double](m.m * m.n)
      m.entries.foreach { case (i, j, v) => a(i * m.n + j) = v }
      new DenseMat(m.m, m.n, a)
    }
  }

  /** Compressed sparse row matrix. */
  final class CSR(val rows: Int, val cols: Int,
                  val pos: Array[Int], val idx: Array[Int], val v: Array[Double]) {
    def nnz: Int = v.length

    /** Sparse·sparse matmul (SciPy's SMMP-style primitive). */
    def mm(o: CSR): CSR = {
      require(cols == o.rows)
      val outPos = new Array[Int](rows + 1)
      val acc = new Array[Double](o.cols)
      val mark = new Array[Int](o.cols)
      java.util.Arrays.fill(mark, -1)
      val idxB = Array.newBuilder[Int]
      val vB = Array.newBuilder[Double]
      var count = 0
      var i = 0
      while (i < rows) {
        val touched = Array.newBuilder[Int]
        var p = pos(i)
        while (p < pos(i + 1)) {
          val k = idx(p); val av = v(p)
          var q = o.pos(k)
          while (q < o.pos(k + 1)) {
            val j = o.idx(q)
            if (mark(j) != i) { mark(j) = i; acc(j) = 0.0; touched += j }
            acc(j) += av * o.v(q)
            q += 1
          }
          p += 1
        }
        val cols_ = touched.result().sorted
        cols_.foreach { j => idxB += j; vB += acc(j); count += 1 }
        outPos(i + 1) = count
        i += 1
      }
      new CSR(rows, o.cols, outPos, idxB.result(), vB.result())
    }

    /** Sparse·dense matmul (the only sparse primitive PyTorch/TF have). */
    def mmDense(o: DenseMat): DenseMat = {
      require(cols == o.rows)
      val out = new Array[Double](rows * o.cols)
      var i = 0
      while (i < rows) {
        var p = pos(i)
        while (p < pos(i + 1)) {
          val k = idx(p); val av = v(p)
          var j = 0
          while (j < o.cols) { out(i * o.cols + j) += av * o.a(k * o.cols + j); j += 1 }
          p += 1
        }
        i += 1
      }
      new DenseMat(rows, o.cols, out)
    }

    def mv(x: Array[Double]): Array[Double] = {
      val out = new Array[Double](rows)
      var i = 0
      while (i < rows) {
        var p = pos(i); var s = 0.0
        while (p < pos(i + 1)) { s += v(p) * x(idx(p)); p += 1 }
        out(i) = s; i += 1
      }
      out
    }

    def transpose: CSR = {
      val tPos = new Array[Int](cols + 1)
      var p = 0
      while (p < idx.length) { tPos(idx(p) + 1) += 1; p += 1 }
      var c = 0
      while (c < cols) { tPos(c + 1) += tPos(c); c += 1 }
      val cur = tPos.clone()
      val tIdx = new Array[Int](nnz)
      val tV = new Array[Double](nnz)
      var i = 0
      while (i < rows) {
        var q = pos(i)
        while (q < pos(i + 1)) {
          val j = idx(q)
          tIdx(cur(j)) = i; tV(cur(j)) = v(q); cur(j) += 1
          q += 1
        }
        i += 1
      }
      new CSR(cols, rows, tPos, tIdx, tV)
    }

    def sumAll: Double = { var s = 0.0; var i = 0; while (i < v.length) { s += v(i); i += 1 }; s }

    def toCoo: Seq[(Int, Int, Double)] = {
      val buf = Seq.newBuilder[(Int, Int, Double)]
      var i = 0
      while (i < rows) {
        var p = pos(i)
        while (p < pos(i + 1)) { buf += ((i, idx(p), v(p))); p += 1 }
        i += 1
      }
      buf.result()
    }
  }

  object CSR {
    def from(m: CooMat): CSR = {
      val pos = new Array[Int](m.m + 1)
      m.entries.foreach { case (i, _, _) => pos(i + 1) += 1 }
      var i = 0
      while (i < m.m) { pos(i + 1) += pos(i); i += 1 }
      val cur = pos.clone()
      val idx = new Array[Int](m.nnz)
      val v = new Array[Double](m.nnz)
      m.entries.foreach { case (r, c, x) =>
        idx(cur(r)) = c; v(cur(r)) = x; cur(r) += 1
      }
      new CSR(m.m, m.n, pos, idx, v)
    }
  }
}
