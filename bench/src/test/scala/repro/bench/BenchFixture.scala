package repro.bench

import repro.SparkSpec
import repro.core.Prost
import repro.harness.BenchEnv

/** One benchmark environment per JVM: stores are built (and their load
  * phases timed) exactly once, then shared by the per-table suites.
  */
object BenchFixture {
  lazy val env: BenchEnv = BenchEnv.default(SparkSpec.shared)

  /** Every system's timings of the full 20-query set, computed once. */
  lazy val timings = env.runSystems()

  lazy val prostTimings = timings.toMap.apply("PRoST")
  lazy val prostVpTimings = env.runAll(env.load(Prost)._1.vpOnlyEngine)
}
