package perfbench

import org.apache.spark.sql.execution.{FileSourceScanExec, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.Exchange
import org.apache.spark.sql.execution.joins.BaseJoinExec

/** Operator counts and scan sizes of one executed physical plan. */
final case class PlanStats(
    exchanges: Long,
    joins: Long,
    joinOutputRows: Long,
    ptRows: Long,
    ptBytes: Long,
    vpRows: Long,
    vpBytes: Long,
)

/** Reads [[PlanStats]] from the final adaptive plan. Adaptive execution
  * hides the exchanges and joins inside query stages, so a plain tree
  * walk over `executedPlan` finds none of them; [[AdaptiveSparkPlanHelper]]
  * walks into every stage of the final plan instead.
  */
object PlanStats extends AdaptiveSparkPlanHelper {

  private def metric(plan: SparkPlan, name: String): Long =
    plan.metrics.get(name).map(_.value).getOrElse(0L)

  def of(plan: SparkPlan): PlanStats = {
    val exchanges = collectWithSubqueries(plan) { case e: Exchange => e }
    val joins = collectWithSubqueries(plan) { case j: BaseJoinExec => j }
    // Scans are split by the store directory they read: `pt` or `vp`.
    val scans = collectWithSubqueries(plan) { case s: FileSourceScanExec => s }
      .groupBy(_.relation.location.rootPaths.headOption.map(_.getName).getOrElse(""))
    def rows(dir: String) = scans.getOrElse(dir, Nil).map(metric(_, "numOutputRows")).sum
    def bytes(dir: String) = scans.getOrElse(dir, Nil).map(metric(_, "filesSize")).sum
    PlanStats(
      exchanges = exchanges.size.toLong,
      joins = joins.size.toLong,
      joinOutputRows = joins.map(metric(_, "numOutputRows")).sum,
      ptRows = rows("pt"),
      ptBytes = bytes("pt"),
      vpRows = rows("vp"),
      vpBytes = bytes("vp"),
    )
  }
}
