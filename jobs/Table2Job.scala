package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.meas.Table2

/** spark-submit entrypoint reproducing Table 2 (dataset summary). */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("storel-table2")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try {
      val rows = Table2.run(spark)
      println("Table 2 — datasets (paper vs synthetic stand-ins):")
      println(Table2.render(rows))
    } finally spark.stop()
  }
}
