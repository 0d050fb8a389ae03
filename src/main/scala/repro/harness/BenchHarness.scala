package repro.harness

import java.nio.file.Paths

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baselines.{RyaLike, S2RdfLike, SparqlGxLike}
import repro.core.{Engine, Prost}
import repro.rdf.TripleOps
import repro.util.Timing
import repro.watdiv.{WatDivGen, WatDivQueries}

/** The paper's evaluation harness (Section 4), shared by the
  * `bench/` ScalaTest suites and the `jobs/` spark-submit entrypoints.
  *
  * All four systems load from the same tab-separated source file (standing
  * in for the N-Triples dump on HDFS) into their own on-disk layout; load
  * time and on-disk size give Table 1, per-query wall-clock gives Table 2
  * and the Figure 2 comparison.
  */
final class BenchEnv(val spark: SparkSession, val scale: Double, baseDir: String) {

  /** Paper numbers for the side-by-side printouts. */
  import BenchEnv.{PaperTable1, PaperTable2}

  private val sourceDir = s"$baseDir/source"

  /** The source dump, generated once (not part of any system's load time). */
  lazy val sourcePath: String = {
    val triples = WatDivGen.generate(spark, scale)
    TripleOps.writeText(triples, sourceDir)
    sourceDir
  }

  /** A fresh, un-cached read of the source dump — every system's loading
    * phase starts here, like reading N-Triples off HDFS.
    */
  def freshTriples: DataFrame = TripleOps.readText(spark, sourcePath)

  /** One-time, untimed warm-up of Spark's shuffle/Parquet/text machinery,
    * so first-use JIT and codegen costs do not land on whichever system
    * happens to load first (the paper's cluster timings measure steady
    * state, not JVM warm-up).
    */
  private lazy val warmedUp: Unit = {
    val warmDir = s"$baseDir/warmup"
    spark.range(1000)
      .selectExpr("cast(id as string) as s", "'p' as p", "cast(id % 7 as string) as o")
      .repartition(org.apache.spark.sql.functions.col("o"))
      .write.mode("overwrite").partitionBy("o").parquet(warmDir)
    spark.read.parquet(warmDir).count()
    freshTriples.count()
    ()
  }

  final case class LoadReport(system: String, bytes: Long, millis: Long) {
    def pretty: String =
      f"$system%-10s ${Timing.humanBytes(bytes)}%12s ${Timing.humanMillis(millis)}%12s"
  }

  private val loaded = mutable.Map.empty[String, (Engine, LoadReport)]

  /** `system`'s store of the source graph under `baseDir`: written, timed
    * and measured on first use, then shared.
    */
  def load[E <: Engine](system: Engine.Store[E]): (E, LoadReport) =
    loaded.getOrElseUpdate(system.name, {
      warmedUp
      val dir = s"$baseDir/${system.name.toLowerCase}"
      val (engine, ms) = Timing.timed(system.writeTo(freshTriples, dir))
      (engine, LoadReport(system.name, Timing.dirBytes(Paths.get(dir)), ms))
    }).asInstanceOf[(E, LoadReport)] // one entry per system name

  /** Table 1 rows, in the paper's order. */
  def loadReports: Seq[LoadReport] = BenchEnv.Systems.map(load(_)._2)

  // ---- querying ----------------------------------------------------------

  final case class QueryTiming(query: String, group: String, millis: Long, rows: Long)

  /** Time the whole basic set on `engine`, one run per query (plan +
    * execute + count the result), after one small warm-up query so
    * JIT/classloading noise lands outside the measurements.
    */
  def runAll(engine: Engine): Seq[QueryTiming] = {
    engine.query(WatDivQueries.L3.query).count() // warm-up
    WatDivQueries.All.map { nq =>
      val (rows, ms) = Timing.timed(engine.query(nq.query).count())
      QueryTiming(nq.name, nq.group, ms, rows)
    }
  }

  /** [[runAll]] on every system, in [[BenchEnv.Systems]] order. */
  def runSystems(): Seq[(String, Seq[QueryTiming])] =
    BenchEnv.Systems.map(system => system.name -> runAll(load(system)._1))

  /** Average milliseconds per query group, keyed by group letter. */
  def groupAverages(ts: Seq[QueryTiming]): Map[String, Double] =
    ts.groupBy(_.group).view.mapValues(g => g.map(_.millis).sum.toDouble / g.size).toMap

  // ---- formatted tables --------------------------------------------------

  /** Table 1 printout with the paper's WatDiv100M numbers alongside. */
  def table1String(reports: Seq[LoadReport]): String = {
    val header = f"${"System"}%-10s ${"Size"}%12s ${"Time"}%12s   paper: size / time (WatDiv100M)"
    val rows = reports.map { r =>
      val (ps, pt) = PaperTable1(r.system)
      f"${r.pretty}   $ps / $pt"
    }
    (s"== Table 1: size and loading time (scale=$scale) ==" +: header +: rows).mkString("\n")
  }

  /** Table 2 printout: average per group for each system + paper numbers. */
  def table2String(bySystem: Seq[(String, Seq[QueryTiming])]): String = {
    val groups = Seq("C", "F", "L", "S")
    val header = f"${"Queries"}%-10s" + bySystem.map { case (n, _) => f"$n%12s" }.mkString +
      "   paper(ms): " + bySystem.map(_._1).mkString("/")
    val rows = groups.map { g =>
      val name = WatDivQueries.GroupNames(g)
      val cells = bySystem.map { case (_, ts) =>
        f"${groupAverages(ts)(g)}%12.0f"
      }.mkString
      val paper = bySystem.map { case (n, _) => PaperTable2(g)(n) }.mkString("/")
      f"$name%-10s$cells   $paper"
    }
    (s"== Table 2: average querying time in ms by query group (scale=$scale) ==" +:
      header +: rows).mkString("\n")
  }

  /** Figure 2 as a table: per-query VP-only vs mixed. */
  def vpVsMixedString(vpOnly: Seq[QueryTiming], mixed: Seq[QueryTiming]): String = {
    val header = f"${"Query"}%-8s${"VP-only"}%10s${"Mixed"}%10s${"speedup"}%10s"
    val rows = vpOnly.zip(mixed).map { case (v, m) =>
      f"${v.query}%-8s${v.millis}%10d${m.millis}%10d${v.millis.toDouble / math.max(1, m.millis)}%10.2f"
    }
    (s"== Figure 2 companion: VP-only vs mixed strategy, per query (scale=$scale) ==" +:
      header +: rows).mkString("\n")
  }
}

object BenchEnv {

  /** The four systems of Tables 1 and 2, in the paper's Table 1 order. */
  val Systems: Seq[Engine.Store[Engine]] = Seq(Prost, SparqlGxLike, S2RdfLike, RyaLike)

  /** Default benchmark scale (~800k triples); override with
    * WATDIV_BENCH_SCALE.
    */
  def defaultScale: Double =
    sys.env.get("WATDIV_BENCH_SCALE").map(_.toDouble).getOrElse(6.0)

  /** Build against `target/bench` with the environment-selected scale. */
  def default(spark: SparkSession): BenchEnv =
    new BenchEnv(spark, defaultScale, "target/bench")

  /** Paper Table 1 (WatDiv100M): system -> (size, loading time). */
  val PaperTable1: Map[String, (String, String)] = Map(
    "PRoST"    -> ("2.1 GB", "25m 32s"),
    "SPARQLGX" -> ("0.9 GB", "20m 01s"),
    "S2RDF"    -> ("6.2 GB", "3h 11m 44s"),
    "Rya"      -> ("3.1 GB", "41m 32s"),
  )

  /** Paper Table 2 (ms, WatDiv100M): group letter -> system -> average.
    * The Star row of the printed paper reads "6,9606" and "2,1046"; these
    * are typeset glitches for 69,606 and 21,046 (consistent with Figure 3's
    * log-scale bars).
    */
  val PaperTable2: Map[String, Map[String, Long]] = Map(
    "C" -> Map("PRoST" -> 9364L, "S2RDF" -> 3392L, "Rya" -> 2195322L, "SPARQLGX" -> 61363L),
    "F" -> Map("PRoST" -> 5923L, "S2RDF" -> 1564L, "Rya" -> 369016L, "SPARQLGX" -> 24046L),
    "L" -> Map("PRoST" -> 2419L, "S2RDF" -> 527L, "Rya" -> 49044L, "SPARQLGX" -> 18254L),
    "S" -> Map("PRoST" -> 1195L, "S2RDF" -> 884L, "Rya" -> 69606L, "SPARQLGX" -> 21046L),
  )
}
