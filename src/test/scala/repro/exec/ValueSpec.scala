package repro.exec

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.LongMap

/** The rules of `Value.deepEq`, one row each: `eps` is relative to the
  * larger magnitude (absolute below 1), entries within `eps` of zero are
  * dropped before dictionaries are compared, and a scalar 0 equals an
  * empty dictionary. (No dictionary representation can list a key twice,
  * so deepEq's summing of repeated keys has no row.) */
class ValueSpec extends AnyFunSuite {

  private def dense(xs: Double*): Value = new VDenseN(xs.toArray)
  private def hash(kvs: (Long, Double)*): Value = new VHashN(LongMap.from(kvs))
  private def nested(rows: (Long, Value)*): Value = new VHashV(LongMap.from(rows))

  private val rows: Seq[(String, Value, Value, Boolean)] = Seq(
    ("equal numbers", VNum(2), VNum(2), true),
    ("within eps below 1", VNum(0.5), VNum(0.5 + 5e-10), true),
    ("beyond eps below 1", VNum(0.5), VNum(0.5 + 2e-9), false),
    ("eps is relative above 1", VNum(1e6), VNum(1e6 + 5e-4), true),
    ("beyond relative eps", VNum(1e6), VNum(1e6 + 2e-3), false),
    ("infinities", VNum(Double.PositiveInfinity), VNum(Double.PositiveInfinity), true),
    ("infinities of opposite sign", VNum(Double.PositiveInfinity), VNum(Double.NegativeInfinity), false),
    ("an infinity and a number", VNum(Double.PositiveInfinity), VNum(1), false),
    ("an infinity and a number in a dictionary entry", hash(3L -> Double.PositiveInfinity),
      hash(3L -> 1.0), false),
    ("infinities of opposite sign in a nested entry", nested(3L -> VNum(Double.PositiveInfinity)),
      nested(3L -> VNum(Double.NegativeInfinity)), false),
    ("NaN equals nothing", VNum(Double.NaN), VNum(Double.NaN), false),
    ("zero and VZero", VZero, VNum(0), true),
    ("tiny scalar and VZero", VNum(1e-10), VZero, true),
    ("VZero and an empty dictionary", VZero, hash(), true),
    ("VZero and a dictionary of zeros", VZero, dense(0, 0), true),
    ("VZero and a dictionary of tiny entries", VZero, hash(3L -> 1e-12), true),
    ("a tiny scalar is not an empty dictionary", VNum(1e-10), hash(), false),
    ("VZero and a non-empty dictionary", VZero, hash(1L -> 1.0), false),
    ("a number and a dictionary", VNum(1), hash(0L -> 1.0), false),
    ("dense and hash with the same entries", dense(1, 0, 2), hash(0L -> 1.0, 2L -> 2.0), true),
    ("a missing entry", dense(1, 0, 2), hash(0L -> 1.0), false),
    ("an extra entry", hash(0L -> 1.0), hash(0L -> 1.0, 5L -> 3.0), false),
    ("a different key", hash(0L -> 1.0), hash(1L -> 1.0), false),
    ("a tiny entry is dropped", hash(0L -> 1.0, 9L -> 1e-10), dense(1), true),
    ("two tiny entries of opposite sign are both dropped", hash(4L -> 9e-10), hash(4L -> -9e-10), true),
    ("a tiny entry does not match a small one", hash(4L -> 8e-10), hash(4L -> 1.5e-9), false),
    ("values within eps", dense(1, 2), dense(1 + 1e-10, 2), true),
    ("values beyond eps", dense(1, 2), dense(1, 2.1), false),
    ("nested equal", nested(0L -> dense(0, 3), 2L -> hash(1L -> 4.0)),
      nested(0L -> hash(1L -> 3.0), 2L -> dense(0, 4)), true),
    ("nested value differs", nested(0L -> hash(1L -> 3.0)), nested(0L -> hash(1L -> 3.5)), false),
    ("a row of zeros is dropped", nested(0L -> hash(1L -> 3.0), 5L -> dense(0, 0)),
      nested(0L -> hash(1L -> 3.0)), true),
    ("a row of tiny entries matches a tiny scalar", nested(1L -> hash(2L -> 1e-12)),
      nested(1L -> VNum(1e-12)), true),
    ("a row does not match a number", nested(1L -> hash(2L -> 1.0)), hash(1L -> 1.0), false),
    ("depths differ", nested(1L -> hash(0L -> 1.0)), nested(1L -> nested(0L -> hash(0L -> 1.0))), false),
    ("a view and an array", new VView(dense(5, 6, 7, 8).asInstanceOf[VDict], 1, 3), hash(1L -> 6.0, 2L -> 7.0), true),
    ("a range and an array", VRng(1, 3), dense(0, 1, 2), true),
    ("a singleton and a hash", VSingle(2, VNum(4)), hash(2L -> 4.0), true))

  rows.foreach { case (name, a, b, expected) =>
    test(s"deepEq: $name") {
      assert(Value.deepEq(a, b) == expected)
      assert(Value.deepEq(b, a) == expected)
    }
  }

  test("deepEq takes its eps as given") {
    assert(Value.deepEq(VNum(1), VNum(1.05), eps = 0.1))
    assert(!Value.deepEq(VNum(1), VNum(1.05), eps = 0.01))
    assert(Value.deepEq(hash(0L -> 1.0, 1L -> 0.05), dense(1), eps = 0.1))
  }
}
