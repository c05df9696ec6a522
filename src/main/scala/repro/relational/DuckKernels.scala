package repro.relational

import java.sql.{Connection, DriverManager}
import repro.relational.RelKernels.Relation

/** The real DuckDB baseline of Sec. 6, via the in-process JDBC driver:
  * tensors loaded as COO relations, kernels run as `RelKernels.Sql`.
  * Loading is excluded from timing, matching the paper's methodology. */
object DuckKernels {

  final class Db private[DuckKernels] (conn: Connection) extends AutoCloseable {
    /** Create one table `name(i, j, …, v)` per relation and insert its rows. */
    def load(relations: Map[String, Relation]): Unit = relations.foreach { case (name, r) =>
      val cols = r.keys.map(c => s"$c BIGINT") :+ "v DOUBLE"
      val st = conn.createStatement()
      st.execute(s"CREATE TABLE $name (${cols.mkString(", ")})")
      st.close()
      val ps = conn.prepareStatement(
        s"INSERT INTO $name VALUES (${Seq.fill(cols.size)("?").mkString(", ")})")
      r.rows.iterator.zipWithIndex.foreach { case ((ks, v), n) =>
        ks.indices.foreach(c => ps.setLong(c + 1, ks(c)))
        ps.setDouble(cols.size, v)
        ps.addBatch()
        if ((n + 1) % 10000 == 0) ps.executeBatch()
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
