package repro.jobs

import repro.harness.{BenchEnv, JobSession}

/** spark-submit entrypoint reproducing **Table 2** (average querying time
  * per query group for PRoST, S2RDF, Rya and SPARQLGX).
  *
  * Usage: `spark-submit --class repro.jobs.QueryTableJob <jar> [scale]`
  */
object QueryTableJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("prost-table2-querying")
    val scale = args.headOption.map(_.toDouble).getOrElse(BenchEnv.defaultScale)
    val env = new BenchEnv(spark, scale, "target/bench-job")
    println(env.table2String(env.runSystems()))
    spark.stop()
  }
}
