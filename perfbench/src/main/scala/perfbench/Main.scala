package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.json.JsonMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.hadoop.fs.FileSystem
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{JoinTree, Prost, ProstDb, PtJtNode, VpJtNode}
import repro.harness.JobSession
import repro.rdf.TripleOps
import repro.sparql.SparqlParser
import repro.util.Timing
import repro.watdiv.WatDivGen
import repro.watdiv.WatDivQueries.NamedQuery

/** Command line of one benchmark run. */
final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean,
                         work: String, traceOut: String)

object Options {
  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Options(get("workload"), get("seed").toLong, get("seconds").toInt,
                    get("trace") == "1", get("work"), get("trace-out"))
    require(o.seconds >= 1, "--seconds must be at least 1")
    o
  }
}

/** One execution of one query: wall time from `ProstDb.query` until every
  * result row is collected, and whether the rows match DuckDB's.
  */
final case class Execution(query: String, ms: Double, rows: Long, ok: Boolean)

/** One measured `Prost.writeTo` call: its directory, wall time, wall-clock
  * window and local-filesystem bytes read.
  */
final case class LoadRun(dir: String, seconds: Double, startMs: Long, endMs: Long, bytesRead: Long)

/** Per-layer record of one traced execution. */
final case class Layers(
    exec: Execution,
    key: String,
    parseMs: Double,
    translateMs: Double,
    buildMs: Double,
    planMs: Double,
    execMs: Double,
    tree: JoinTree,
    queryExecutionId: Long,
)

/** A run of one workload: set-up, a closed loop of whole query rounds for
  * the given number of seconds, a measured load, and the result line. With
  * `--trace 1` the loop alternates untraced and traced rounds, and the run
  * reports the per-layer metrics and the tracing overhead instead.
  */
final class Bench(spark: SparkSession, o: Options) {
  private val workload = Workloads(o.workload)
  private val source = s"${o.work}/source"
  private val trace = new Trace(spark)
  private val cores = spark.sparkContext.defaultParallelism
  private val failures = mutable.ArrayBuffer.empty[String]
  private var nextKey = 0

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  // ---- set-up ----------------------------------------------------------

  private def fsBytesRead(): Long =
    Option(FileSystem.getGlobalStorageStatistics.get("file"))
      .flatMap(s => Option(s.getLong("bytesRead"))).map(_.longValue).getOrElse(0L)

  /** Load `source` into a fresh store directory: the call users make. */
  private def load(dir: String): ProstDb = Prost.writeTo(TripleOps.readText(spark, source), dir)

  /** Expected fingerprints, by query name. */
  private var expected: Map[String, Fingerprint] = Map.empty

  // ---- one query -------------------------------------------------------

  private def check(q: NamedQuery, df: DataFrame, rows: Array[org.apache.spark.sql.Row]): Boolean = {
    val got = Fingerprint.ofSpark(df.columns.toSeq, rows)
    val ok = expected.get(q.name).contains(got)
    if (!ok) failures += s"${q.name}: got ${got.rows} rows ${got.hash}, DuckDB ${expected.get(q.name)}"
    ok
  }

  private def failed(q: NamedQuery, e: Throwable): Execution = {
    failures += s"${q.name}: ${e.getClass.getSimpleName}: ${e.getMessage}"
    Execution(q.name, Double.NaN, 0L, ok = false)
  }

  private def execute(db: ProstDb, q: NamedQuery): Execution =
    try {
      val t0 = System.nanoTime()
      val df = db.query(q.sparql)
      val rows = df.collect()
      val ms = (System.nanoTime() - t0) / 1e6
      Execution(q.name, ms, rows.length.toLong, check(q, df, rows))
    } catch { case e: Exception => failed(q, e) }

  /** [[execute]] through the engine's public layers, one span each:
    * parse, translate, build (the Executor, via `ProstDb.query`), plan and
    * exec. The spans share a key, which also tags the query's Spark jobs.
    */
  private def executeTraced(db: ProstDb, q: NamedQuery, into: mutable.Buffer[Layers]): Execution =
    try {
      nextKey += 1
      val key = s"q$nextKey"
      def part[A](name: String)(body: => A): A = trace.span(key, name, Some("query"))(body)
      val t0 = System.nanoTime()
      val (tree, df, rows) = trace.span(key, "query") {
        val bgp = part("parse")(SparqlParser.parse(q.sparql))
        val tree = part("translate")(db.plan(bgp))
        val df = part("build")(db.query(bgp, vpOnly = false))
        part("plan")(df.queryExecution.executedPlan)
        (tree, df, part("exec")(df.collect()))
      }
      val exec = Execution(q.name, (System.nanoTime() - t0) / 1e6, rows.length.toLong, check(q, df, rows))
      val ms = trace.spans.takeRight(6).filter(_.key == key).map(s => s.name -> s.ms).toMap
      into += Layers(exec, key, ms("parse"), ms("translate"), ms("build"), ms("plan"), ms("exec"),
                     tree, df.queryExecution.id)
      exec
    } catch { case e: Exception => failed(q, e) }

  /** The query order of one round, fixed by the seed. */
  private def order(round: Int): Seq[NamedQuery] =
    new scala.util.Random(o.seed * 1000003L + round).shuffle(workload.queries)

  /** Run whole rounds, numbered from `firstRound`, until at least
    * `minRounds` have run and `limit` seconds have passed; returns the
    * elapsed seconds.
    */
  private def rounds(firstRound: Int, minRounds: Int, limit: Double)(body: Int => Unit): Double = {
    val t0 = System.nanoTime()
    val lengths = mutable.ArrayBuffer.empty[Double]
    while (lengths.size < minRounds || seconds(t0) < limit) {
      val r0 = System.nanoTime()
      body(firstRound + lengths.size)
      lengths += seconds(r0)
    }
    log(f"rounds from $firstRound: ${lengths.map(x => f"$x%.2f").mkString(" ")} s")
    seconds(t0)
  }

  // ---- statistics ------------------------------------------------------

  private def percentile(xs: collection.Seq[Double], p: Double): Double = {
    val s = xs.sorted
    val pos = p * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  private def median(xs: collection.Seq[Double]): Double = percentile(xs, 0.5)

  /** JVM heap in use after a full collection, plus block-manager bytes on
    * disk: everything the run keeps once the timed section is over. In
    * local mode cached blocks live on this heap, so caching the store shows.
    */
  private def retainedBytes(): Long = {
    (1 to 3).foreach(_ => System.gc())
    val heap = java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    heap + spark.sparkContext.getRDDStorageInfo.map(_.diskSize).sum
  }

  private def cachedBytes(): Long =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

  // ---- the run ---------------------------------------------------------

  def run(): String = {
    // Set-up: source generation, the warm-up load (its store is the one
    // queried) and warm-up rounds. DuckDB's reference work is excluded.
    val setupStart = System.nanoTime()
    TripleOps.writeText(WatDivGen.generate(spark, Workloads.Scale, o.seed), source)
    val generateS = seconds(setupStart)
    val db = load(s"${o.work}/store")
    val setupBeforeReference = seconds(setupStart)

    val referenceStart = System.nanoTime()
    expected = Reference.fingerprints(source, workload.queries)
    val referenceS = seconds(referenceStart)

    val warm = mutable.ArrayBuffer.empty[Execution]
    val warmS = rounds(-workload.warmupRounds, workload.warmupRounds, 0.0)(r => warm ++= order(r).map(execute(db, _)))
    val setupS = setupBeforeReference + warmS
    log(f"set-up ${setupS}%.2f s (generate $generateS%.2f s, ${warm.size} warm-up executions); " +
        f"DuckDB reference $referenceS%.2f s")

    val zeroRow = expected.filter(_._2.rows == 0).keys.toSeq.sorted

    // Timed section. A traced run alternates untraced and traced rounds for
    // twice as long, so both halves see the same JIT warm-up; the listeners
    // are only registered during traced rounds.
    val untraced = mutable.ArrayBuffer.empty[Execution]
    val traced = mutable.ArrayBuffer.empty[Execution]
    val layers = mutable.ArrayBuffer.empty[Layers]
    val untracedS =
      if (!o.trace) rounds(0, 1, o.seconds.toDouble)(r => untraced ++= order(r).map(execute(db, _)))
      else {
        var untimed = 0.0
        rounds(0, 2, 2.0 * o.seconds) { r =>
          val t0 = System.nanoTime()
          if (r % 2 == 0) untraced ++= order(r).map(execute(db, _))
          else {
            trace.register()
            traced ++= order(r).map(executeTraced(db, _, layers))
            trace.fence()
            trace.unregister()
          }
          if (r % 2 == 0) untimed += seconds(t0)
        }
        untimed
      }
    val retained = if (o.trace) 0L else retainedBytes()

    // The measured load is the process's second one, run after the timed
    // section into a fresh directory; the set-up load was its warm-up.
    if (o.trace) trace.register()
    val loadStartMs = System.currentTimeMillis()
    val readBefore = fsBytesRead()
    val loadStart = System.nanoTime()
    trace.span("load", "load")(load(s"${o.work}/store-measured"))
    val measured = LoadRun(s"${o.work}/store-measured", seconds(loadStart), loadStartMs,
                           System.currentTimeMillis(), fsBytesRead() - readBefore)
    if (o.trace) { trace.fence(); trace.unregister() }
    val storeBytes = Timing.dirBytes(Paths.get(measured.dir))
    log(f"measured load ${measured.seconds}%.2f s")

    val out = new StringBuilder
    def line(s: String): Unit = out ++= s + "\n"
    line(s"workload ${workload.name} (${workload.purpose}); scale ${Workloads.Scale}, seed ${o.seed}, " +
         s"$cores cores, one closed-loop client")
    line(f"${"query"}%-6s ${"runs"}%5s ${"p50 ms"}%9s ${"rows"}%8s")
    untraced.groupBy(_.query).toSeq.sortBy(_._1).foreach { case (q, es) =>
      val ok = es.filter(_.ok)
      val p50 = if (ok.isEmpty) Double.NaN else median(ok.map(_.ms))
      line(f"$q%-6s ${es.size}%5d $p50%9.1f ${expected(q).rows}%8d")
    }
    zeroRow.foreach(q => line(s"FLAG: $q returns 0 rows under seed ${o.seed}"))

    val okMs = untraced.filter(_.ok).map(_.ms)
    val attempted = untraced.size
    val failedCount = untraced.count(!_.ok)
    val p50 = if (okMs.isEmpty) 0.0 else median(okMs)
    val p90 = if (okMs.isEmpty) 0.0 else percentile(okMs, 0.9)

    val (metrics, tracedAttempted, tracedFailed) =
      if (!o.trace) {
        val m = ListMap[String, (Double, String)](
          "query_ms_p50" -> (p50, "ms"),
          "query_ms_p90" -> (p90, "ms"),
          "queries_per_s" -> (okMs.size / untracedS, "1/s"),
          "load_s" -> (measured.seconds, "s"),
          "store_bytes" -> (storeBytes.toDouble, "bytes"),
          "setup_s" -> (setupS, "s"),
          "retained_bytes" -> (retained.toDouble, "bytes"),
          "ok_frac" -> ((attempted - failedCount).toDouble / attempted, "fraction"),
        )
        line(s"end-to-end: ${okMs.size} timed executions in ${"%.2f".format(untracedS)} s, " +
             s"${okMs.count(_ > p90)} above p90; failed_frac ${failedCount.toDouble / attempted}; " +
             s"cached_bytes ${cachedBytes()}")
        (m, 0, 0)
      } else {
        val m = perLayer(layers.toSeq, p50, measured, line)
        (m, traced.size, traced.count(!_.ok))
      }

    metrics.foreach { case (k, (v, unit)) => line(f"  $k%-26s ${v}%16.4f $unit") }
    if (failures.nonEmpty) {
      line(s"FAILED: ${failures.size} executions; first: ${failures.head}")
      failures.distinct.take(10).foreach(f => log(s"failure: $f"))
    }
    val result = ListMap(
      "correct" -> failures.isEmpty,
      "attempted" -> (attempted + tracedAttempted),
      "failed" -> (failedCount + tracedFailed),
      "metrics" -> metrics.map { case (k, (v, u)) => k -> ListMap("value" -> v, "unit" -> u) },
    )
    out ++= Bench.json.writeValueAsString(result)
    out.result()
  }

  // ---- the traced run's per-layer report -------------------------------

  private def perLayer(
      layers: Seq[Layers],
      untracedP50: Double,
      loaded: LoadRun,
      line: String => Unit,
  ): ListMap[String, (Double, String)] = {
    val plans = layers.map { l =>
      val qe = trace.action(l.queryExecutionId).getOrElse(
        throw new IllegalStateException(s"no query execution event for ${l.exec.query}"))
      l -> PlanStats.of(qe.executedPlan)
    }
    val works = layers.map(l => l -> trace.sparkWork(l.key)).toMap

    // Self-check: exchanges and joins are visible through adaptive execution.
    plans.filter { case (l, _) => Set("C1", "C2")(l.exec.query) }.foreach { case (l, p) =>
      if (p.exchanges == 0 || p.joins == 0)
        failures += s"${l.exec.query}: plan reports ${p.exchanges} exchanges and ${p.joins} joins"
    }

    def idle(w: SparkWork, ls: Seq[Layers]): Double = 1.0 - w.taskRunMs / (ls.map(_.execMs).sum * cores)

    // Per-query table: medians of times, means of counts.
    line("per query (traced): times are medians in ms, counts are per execution")
    line(f"${"query"}%-5s ${"parse"}%6s ${"transl"}%6s ${"build"}%6s ${"plan"}%6s ${"exec"}%7s " +
         f"${"nodes"}%5s ${"pt"}%3s ${"vp"}%3s ${"jobs"}%4s ${"stg"}%4s ${"tasks"}%5s ${"taskms"}%7s " +
         f"${"cpums"}%6s ${"gcms"}%5s ${"idle"}%5s ${"shufW"}%9s ${"shufR"}%9s ${"inB"}%9s ${"inRec"}%8s " +
         f"${"exch"}%4s ${"join"}%4s ${"joinRows"}%9s ${"r/res"}%6s ${"ptRows"}%8s ${"ptB"}%8s " +
         f"${"vpRows"}%8s ${"vpB"}%8s ${"rows"}%7s")
    plans.groupBy(_._1.exec.query).toSeq.sortBy(_._1).foreach { case (q, ps) =>
      val ls = ps.map(_._1)
      val n = ls.size.toDouble
      val w = new SparkWork
      ls.foreach(l => w.add(works(l)))
      def med(f: Layers => Double) = median(ls.map(f))
      def avg(f: PlanStats => Long) = ps.map(p => f(p._2)).sum / n
      val t = ls.head.tree
      val rows = ls.head.exec.rows
      line(f"$q%-5s ${med(_.parseMs)}%6.2f ${med(_.translateMs)}%6.2f ${med(_.buildMs)}%6.2f " +
           f"${med(_.planMs)}%6.1f ${med(_.execMs)}%7.1f ${t.nodes.size}%5d " +
           f"${t.nodes.count(_.isInstanceOf[PtJtNode])}%3d ${t.nodes.count(_.isInstanceOf[VpJtNode])}%3d " +
           f"${w.jobs / n}%4.1f ${w.stages / n}%4.1f ${w.tasks / n}%5.0f ${w.taskRunMs / n}%7.0f " +
           f"${w.taskCpuNs / 1e6 / n}%6.0f ${w.gcMs / n}%5.0f ${idle(w, ls)}%5.2f ${w.shuffleWriteBytes / n}%9.0f " +
           f"${w.shuffleReadBytes / n}%9.0f ${w.inputBytes / n}%9.0f ${w.inputRecords / n}%8.0f " +
           f"${avg(_.exchanges)}%4.1f ${avg(_.joins)}%4.1f ${avg(_.joinOutputRows)}%9.0f " +
           f"${avg(_.joinOutputRows) / math.max(1L, rows)}%6.2f ${avg(_.ptRows)}%8.0f ${avg(_.ptBytes)}%8.0f " +
           f"${avg(_.vpRows)}%8.0f ${avg(_.vpBytes)}%8.0f $rows%7d")
    }

    // Span self time: the query span minus the parts its children cover.
    val bySpan = trace.spans.filter(_.key.startsWith("q")).groupBy(_.key)
    val selfMs = bySpan.values.flatMap { ss =>
      ss.find(_.name == "query").map(root => root.ms - ss.filter(_.parent.contains("query")).map(_.ms).sum)
    }.toSeq
    line(f"span self time, mean ms: query ${selfMs.sum / selfMs.size}%.3f; " +
         Seq("parse", "translate", "build", "plan", "exec").map { n =>
           val xs = trace.spans.filter(s => s.name == n && s.key.startsWith("q")).map(_.ms)
           f"$n ${xs.sum / xs.size}%.3f"
         }.mkString("; "))

    val store = loaded.dir
    val phases = loadPhases(loaded.startMs, loaded.endMs)
    val loadMs = loaded.seconds * 1000
    val otherMs = loadMs - phases.values.map(_._1).sum
    line(f"load phases (one Prost.writeTo, ${loadMs}%.0f ms): " + phases.map { case (p, (ms, w)) =>
      f"$p ${ms}%.0f ms / ${w.tasks} tasks / ${w.taskRunMs} task-ms / ${w.shuffleWriteBytes} shuffle B"
    }.mkString("; ") + f"; other ${otherMs}%.0f ms")

    val spanStart = trace.spans.map(_.startNs).min
    Files.createDirectories(Paths.get(o.traceOut).toAbsolutePath.getParent)
    Files.write(Paths.get(o.traceOut), Bench.json.writeValueAsString(ListMap(
      "workload" -> workload.name,
      "seed" -> o.seed,
      "spans" -> trace.spans.map(s => ListMap("key" -> s.key, "name" -> s.name, "parent" -> s.parent,
        "start_ms" -> (s.startNs - spanStart) / 1e6, "ms" -> s.ms)),
      "load_phases" -> phases.map { case (p, (ms, w)) =>
        p -> ListMap("ms" -> ms, "tasks" -> w.tasks, "task_run_ms" -> w.taskRunMs,
                     "shuffle_write_bytes" -> w.shuffleWriteBytes, "input_bytes" -> w.inputBytes) },
    )).getBytes(StandardCharsets.UTF_8))
    line(s"trace written to ${o.traceOut}")

    val tracedP50 = median(layers.map(_.exec.ms))
    line(f"tracing overhead: traced query_ms_p50 ${tracedP50}%.2f - untraced ${untracedP50}%.2f = " +
         f"${tracedP50 - untracedP50}%.2f ms")

    val total = new SparkWork
    layers.foreach(l => total.add(works(l)))
    val n = layers.size.toDouble
    val resultRows = layers.map(_.exec.rows).sum
    def mean(f: Layers => Double) = layers.map(f).sum / n
    def planMean(f: PlanStats => Long) = plans.map(p => f(p._2)).sum / n
    def nodes(f: JoinTree => Int) = mean(l => f(l.tree).toDouble)
    val loadWork = trace.sparkWork("load")
    val storeFiles = Files.walk(Paths.get(store)).iterator().asScala
      .count(p => Files.isRegularFile(p) && !p.getFileName.toString.endsWith(".crc"))
    val sourceBytes = Timing.dirBytes(Paths.get(source))

    ListMap(
      "sparql.parse_ms" -> (mean(_.parseMs), "ms"),
      "core.translate_ms" -> (mean(_.translateMs), "ms"),
      "core.tree_nodes" -> (nodes(_.nodes.size), "count"),
      "core.pt_nodes" -> (nodes(_.nodes.count(_.isInstanceOf[PtJtNode])), "count"),
      "core.vp_nodes" -> (nodes(_.nodes.count(_.isInstanceOf[VpJtNode])), "count"),
      "core.build_ms" -> (mean(_.buildMs), "ms"),
      "spark.plan_ms" -> (mean(_.planMs), "ms"),
      "spark.exec_ms" -> (mean(_.execMs), "ms"),
      "spark.jobs" -> (total.jobs / n, "count"),
      "spark.stages" -> (total.stages / n, "count"),
      "spark.tasks" -> (total.tasks / n, "count"),
      "spark.task_run_ms" -> (total.taskRunMs / n, "ms"),
      "spark.task_cpu_ms" -> (total.taskCpuNs / 1e6 / n, "ms"),
      "spark.gc_ms" -> (total.gcMs / n, "ms"),
      "spark.slot_idle_frac" -> (idle(total, layers), "fraction"),
      "spark.shuffle_write_bytes" -> (total.shuffleWriteBytes / n, "bytes"),
      "spark.shuffle_read_bytes" -> (total.shuffleReadBytes / n, "bytes"),
      "spark.input_bytes" -> (total.inputBytes / n, "bytes"),
      "spark.input_records" -> (total.inputRecords / n, "count"),
      "plan.exchanges" -> (planMean(_.exchanges), "count"),
      "plan.joins" -> (planMean(_.joins), "count"),
      "plan.join_output_rows" -> (planMean(_.joinOutputRows), "rows"),
      "plan.rows_per_result" -> (plans.map(_._2.joinOutputRows).sum.toDouble / math.max(1L, resultRows), "ratio"),
      "scan.pt_rows" -> (planMean(_.ptRows), "rows"),
      "scan.pt_bytes" -> (planMean(_.ptBytes), "bytes"),
      "scan.vp_rows" -> (planMean(_.vpRows), "rows"),
      "scan.vp_bytes" -> (planMean(_.vpBytes), "bytes"),
      "load.stats_ms" -> (phases.get("stats").map(_._1).getOrElse(0.0), "ms"),
      "load.vp_write_ms" -> (phases.get("vp_write").map(_._1).getOrElse(0.0), "ms"),
      "load.pt_write_ms" -> (phases.get("pt_write").map(_._1).getOrElse(0.0), "ms"),
      "load.other_ms" -> (otherMs, "ms"),
      "load.source_passes" -> (loaded.bytesRead.toDouble / sourceBytes, "ratio"),
      "load.shuffle_write_bytes" -> (loadWork.shuffleWriteBytes.toDouble, "bytes"),
      "load.task_run_ms" -> (loadWork.taskRunMs.toDouble, "ms"),
      "store.vp_bytes" -> (Timing.dirBytes(Paths.get(s"$store/vp")).toDouble, "bytes"),
      "store.pt_bytes" -> (Timing.dirBytes(Paths.get(s"$store/pt")).toDouble, "bytes"),
      "store.files" -> (storeFiles.toDouble, "count"),
      "result.rows" -> (resultRows / n, "rows"),
      "trace.query_self_ms" -> (selfMs.sum / selfMs.size, "ms"),
      "trace.overhead_ms" -> (tracedP50 - untracedP50, "ms"),
    )
  }

  /** The SQL executions of the measured load, each assigned to a phase by
    * its output directory (`vp_write`, `pt_write`) or by its `collect`
    * action (`stats`): phase -> (ms, Spark work). Unassigned executions are
    * left to the `other` remainder.
    */
  private def loadPhases(startMs: Long, endMs: Long): ListMap[String, (Double, SparkWork)] = {
    val writeTo = "Arguments: file:\\S*/([^/,\\s]+),".r
    val phased = trace.sqlExecutions.filter(x => x.startMs >= startMs && x.endMs <= endMs).flatMap { x =>
      val phase = writeTo.findFirstMatchIn(x.plan).map(m => s"${m.group(1)}_write")
        .orElse(Option.when(x.description.startsWith("collect "))("stats"))
      phase.map(_ -> ((x.endMs - x.startMs).toDouble, trace.executionWork(x.id)))
    }
    ListMap.from(phased.groupBy(_._1).toSeq.sortBy(_._1).map { case (p, xs) =>
      val w = new SparkWork
      xs.foreach(x => w.add(x._2._2))
      p -> (xs.map(_._2._1).sum, w)
    })
  }
}

object Bench {
  /** Writes Scala maps, sequences and options as JSON objects, arrays and values. */
  val json: JsonMapper = JsonMapper.builder().addModule(DefaultScalaModule).build()
}

object Main {
  def main(args: Array[String]): Unit = {
    val o = Options.parse(args)
    Workloads(o.workload) // fail fast on an unknown name
    val spark = JobSession.create("perfbench")
    val result =
      try new Bench(spark, o).run()
      finally spark.stop()
    println(result)
  }
}
