package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.meas.Table3

/** spark-submit entrypoint reproducing Table 3 (best storage format per
  * kernel per system, with runtimes). */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("storel-table3")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val cells = Table3.run(spark, log = println)
      println("Table 3 — best storage formats and runtimes:")
      println(Table3.render(cells))
    } finally spark.stop()
  }
}
