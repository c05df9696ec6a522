package repro.relational

import java.sql.{Connection, DriverManager}
import repro.storage.{CooMat, Coo3}

/** The real DuckDB baseline of Sec. 6, via the in-process JDBC driver:
  * tensors loaded as COO relations, kernels run as aggregate-join SQL.
  * Loading is excluded from timing, matching the paper's methodology. */
object DuckKernels {

  final class Db private[DuckKernels] (val conn: Connection) extends AutoCloseable {
    def loadMatrix(name: String, m: CooMat): Unit = {
      val st = conn.createStatement()
      st.execute(s"CREATE TABLE $name (i BIGINT, j BIGINT, v DOUBLE)")
      st.close()
      val ps = conn.prepareStatement(s"INSERT INTO $name VALUES (?, ?, ?)")
      var c = 0
      m.entries.foreach { case (i, j, v) =>
        ps.setLong(1, i.toLong); ps.setLong(2, j.toLong); ps.setDouble(3, v)
        ps.addBatch(); c += 1
        if (c % 10000 == 0) ps.executeBatch()
      }
      ps.executeBatch(); ps.close()
    }

    def loadTensor(name: String, t: Coo3): Unit = {
      val st = conn.createStatement()
      st.execute(s"CREATE TABLE $name (i BIGINT, j BIGINT, k BIGINT, v DOUBLE)")
      st.close()
      val ps = conn.prepareStatement(s"INSERT INTO $name VALUES (?, ?, ?, ?)")
      var c = 0
      t.entries.foreach { case (i, j, k, v) =>
        ps.setLong(1, i.toLong); ps.setLong(2, j.toLong)
        ps.setLong(3, k.toLong); ps.setDouble(4, v)
        ps.addBatch(); c += 1
        if (c % 10000 == 0) ps.executeBatch()
      }
      ps.executeBatch(); ps.close()
    }

    def loadVector(name: String, x: Array[Double]): Unit = {
      val st = conn.createStatement()
      st.execute(s"CREATE TABLE $name (i BIGINT, v DOUBLE)")
      st.close()
      val ps = conn.prepareStatement(s"INSERT INTO $name VALUES (?, ?)")
      x.zipWithIndex.foreach { case (v, i) =>
        ps.setLong(1, i.toLong); ps.setDouble(2, v); ps.addBatch()
      }
      ps.executeBatch(); ps.close()
    }

    /** Run `sql` and fetch its rows as (key columns, value): the last
      * column is the value, every other one a key. */
    def query(sql: String): Vector[(Vector[Long], Double)] = {
      val st = conn.createStatement()
      try {
        val rs = st.executeQuery(sql)
        val nKeys = rs.getMetaData.getColumnCount - 1
        val rows = Vector.newBuilder[(Vector[Long], Double)]
        while (rs.next())
          rows += ((Vector.tabulate(nKeys)(c => rs.getLong(c + 1)), rs.getDouble(nKeys + 1)))
        rows.result()
      } finally st.close()
    }

    def close(): Unit = conn.close()
  }

  def open(): Db = {
    Class.forName("org.duckdb.DuckDBDriver")
    new Db(DriverManager.getConnection("jdbc:duckdb:"))
  }
}
