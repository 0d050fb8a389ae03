package repro.jobs

import repro.core.Prost
import repro.harness.{BenchEnv, JobSession}

/** spark-submit entrypoint reproducing the paper's **Figure 2** comparison
  * (VP-only vs the mixed VP + Property Table strategy) as a table.
  *
  * Usage: `spark-submit --class repro.jobs.VpVsMixedJob <jar> [scale]`
  */
object VpVsMixedJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("prost-fig2-vp-vs-mixed")
    val scale = args.headOption.map(_.toDouble).getOrElse(BenchEnv.defaultScale)
    val env = new BenchEnv(spark, scale, "target/bench-job")
    val db = env.load(Prost)._1
    val vpOnly = env.runAll(db.vpOnlyEngine)
    val mixed  = env.runAll(db)
    println(env.vpVsMixedString(vpOnly, mixed))
    spark.stop()
  }
}
