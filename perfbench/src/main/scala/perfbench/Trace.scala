package perfbench

import scala.collection.mutable

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import org.apache.spark.sql.util.QueryExecutionListener

/** Spark work summed over the tasks, stages and jobs of one span. */
final class SparkWork {
  var jobs, stages, tasks = 0L
  var taskRunMs, taskCpuNs, gcMs = 0L
  var shuffleWriteBytes, shuffleReadBytes, inputBytes, inputRecords = 0L

  def add(o: SparkWork): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks
    taskRunMs += o.taskRunMs; taskCpuNs += o.taskCpuNs; gcMs += o.gcMs
    shuffleWriteBytes += o.shuffleWriteBytes; shuffleReadBytes += o.shuffleReadBytes
    inputBytes += o.inputBytes; inputRecords += o.inputRecords
  }
}

/** One Spark SQL execution, as announced on the listener bus. */
final case class SqlExecution(id: Long, description: String, plan: String,
                              startMs: Long, var endMs: Long = -1L)

/** A timed interval of the traced run. Spans of one query share `key`. */
final case class Span(key: String, name: String, parent: Option[String], startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** The traced run's collector. It is a [[SparkListener]] and a
  * [[QueryExecutionListener]], registered from the benchmark only.
  *
  * Jobs are assigned to a span by the local property [[Trace.SpanKey]]
  * that the driver thread sets around each query and load. The listener
  * bus is asynchronous, so events are never assigned by time: a task-end
  * event that arrives late is still charged to the job that ran it.
  * [[fence]] waits until every event posted before it has been delivered.
  */
final class Trace(spark: SparkSession) extends SparkListener with QueryExecutionListener {
  import Trace.SpanKey

  private val sc = spark.sparkContext
  private val stageSpan = mutable.Map.empty[Int, String]
  private val stageExecution = mutable.Map.empty[Int, Long]
  private val bySpan = mutable.Map.empty[String, SparkWork]
  private val byExecution = mutable.Map.empty[Long, SparkWork]
  private val executions = mutable.LinkedHashMap.empty[Long, SqlExecution]
  private val actions = mutable.Map.empty[Long, QueryExecution]
  private val fencesSeen = mutable.Set.empty[String]
  private var fences = 0

  /** Spans recorded by the driver thread; written out when the run ends. */
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty

  def register(): Unit = {
    sc.addSparkListener(this)
    spark.listenerManager.register(this)
  }

  def unregister(): Unit = {
    sc.removeSparkListener(this)
    spark.listenerManager.unregister(this)
  }

  /** Run `body` with its Spark jobs tagged `key`, recording a span. */
  def span[A](key: String, name: String, parent: Option[String] = None)(body: => A): A = {
    val previous = sc.getLocalProperty(SpanKey)
    sc.setLocalProperty(SpanKey, key)
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(key, name, parent, t0, System.nanoTime())
      sc.setLocalProperty(SpanKey, previous)
    }
  }

  private def work(key: String): SparkWork = bySpan.getOrElseUpdate(key, new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val key = props.flatMap(p => Option(p.getProperty(SpanKey))).getOrElse("")
    val execution = props.flatMap(p => Option(p.getProperty("spark.sql.execution.id"))).map(_.toLong)
    e.stageIds.foreach { s =>
      stageSpan(s) = key
      execution.foreach(stageExecution(s) = _)
    }
    work(key).jobs += 1
    execution.foreach(x => byExecution.getOrElseUpdate(x, new SparkWork).jobs += 1)
    if (key.startsWith(Trace.FencePrefix)) fencesSeen += key
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val id = e.stageInfo.stageId
    work(stageSpan.getOrElse(id, "")).stages += 1
    stageExecution.get(id).foreach(x => byExecution.getOrElseUpdate(x, new SparkWork).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    val targets = Seq(work(stageSpan.getOrElse(e.stageId, ""))) ++
      stageExecution.get(e.stageId).map(x => byExecution.getOrElseUpdate(x, new SparkWork))
    targets.foreach { w =>
      w.tasks += 1
      if (m != null) {
        w.taskRunMs += m.executorRunTime
        w.taskCpuNs += m.executorCpuTime
        w.gcMs += m.jvmGCTime
        w.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        w.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        w.inputBytes += m.inputMetrics.bytesRead
        w.inputRecords += m.inputMetrics.recordsRead
      }
    }
  }

  override def onOtherEvent(event: SparkListenerEvent): Unit = synchronized {
    event match {
      case s: SparkListenerSQLExecutionStart =>
        executions(s.executionId) =
          SqlExecution(s.executionId, s.description, s.physicalPlanDescription, s.time)
      case e: SparkListenerSQLExecutionEnd =>
        executions.get(e.executionId).foreach(_.endMs = e.time)
      case _ => ()
    }
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = synchronized {
    actions(qe.id) = qe
  }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  /** Block until every listener event posted so far has been delivered:
    * runs a one-task job tagged with a fresh fence key and waits for its
    * start event, which the bus delivers after all earlier events.
    */
  def fence(): Unit = {
    val key = synchronized { fences += 1; s"${Trace.FencePrefix}$fences" }
    span(key, "fence")(sc.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 60L * 1000000000L
    while (synchronized(!fencesSeen.contains(key))) {
      require(System.nanoTime() < deadline, "listener bus did not deliver the fence job within 60 s")
      Thread.sleep(5)
    }
    // The QueryExecutionListener runs on its own bus queue; give it the
    // same guarantee with a no-op action whose callback must arrive.
    val df = spark.range(1)
    df.collect()
    val id = df.queryExecution.id
    while (synchronized(!actions.contains(id))) {
      require(System.nanoTime() < deadline, "query execution listener did not catch up within 60 s")
      Thread.sleep(5)
    }
  }

  def sparkWork(key: String): SparkWork = synchronized(bySpan.getOrElse(key, new SparkWork))

  def executionWork(id: Long): SparkWork = synchronized(byExecution.getOrElse(id, new SparkWork))

  /** The completed action whose [[QueryExecution]] has id `id`. */
  def action(id: Long): Option[QueryExecution] = synchronized(actions.get(id))

  /** SQL executions whose start and end were both seen. */
  def sqlExecutions: Seq[SqlExecution] = synchronized(executions.values.filter(_.endMs >= 0).toSeq)
}

object Trace {
  /** Local property naming the span a job belongs to. */
  val SpanKey = "perfbench.span"
  private val FencePrefix = "fence#"
}
