package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.sparql.{BgpQuery, SparqlParser}

/** A loaded PRoST database: the two partitionings plus the load-time
  * statistics, with the full query path (parse → translate → execute).
  */
final class ProstDb(
    val spark: SparkSession,
    val vp: VpStore,
    val pt: PropertyTable,
    val stats: GraphStats,
) extends Engine {
  private val translator = new Translator(stats)
  private val executor = new Executor(vp, pt)

  val name: String = Prost.name

  /** Translate a parsed BGP into the Join Tree (exposed for tests/benches). */
  def plan(query: BgpQuery, vpOnly: Boolean = false): JoinTree =
    translator.translate(query, vpOnly)

  /** Run a parsed BGP; `vpOnly = true` disables the Property Table (the
    * paper's Figure 2 baseline).
    */
  def query(query: BgpQuery, vpOnly: Boolean): DataFrame =
    executor.execute(plan(query, vpOnly))

  /** Run a parsed BGP with the mixed VP + PT strategy. */
  def query(q: BgpQuery): DataFrame = query(q, vpOnly = false)

  /** Parse and run a SPARQL string with the mixed VP + PT strategy. */
  def query(sparql: String): DataFrame =
    query(SparqlParser.parse(sparql), vpOnly = false)

  /** The same store answering with VP tables only. */
  lazy val vpOnlyEngine: Engine = new Engine {
    val name = "PRoST VP-only"
    def query(q: BgpQuery): DataFrame = ProstDb.this.query(q, vpOnly = true)
  }
}

/** PRoST loading phase: both partitionings plus the statistics, on disk
  * (the paper's loading experiment, Table 1).
  */
object Prost extends Engine.Store[ProstDb] {

  val name = "PRoST"

  /** VP Parquet tables, PT Parquet and the stats metadata under `dir`. */
  protected def write(triples: DataFrame, dir: String): Unit = {
    val cached = triples.cache()
    val stats = GraphStats.compute(cached)
    VpStore.write(cached, stats, s"$dir/vp")
    PropertyTable.write(PropertyTable.build(cached, stats), s"$dir/pt")
    GraphStats.write(stats, s"$dir/stats.tsv")
    cached.unpersist()
  }

  /** Open a database previously written by [[writeTo]]. */
  def loadFrom(spark: SparkSession, dir: String): ProstDb = {
    val stats = GraphStats.read(s"$dir/stats.tsv")
    val multi = stats.predicates.filter(stats(_).isMultiValued).toSet
    new ProstDb(
      spark,
      VpStore.load(spark, s"$dir/vp", stats.predicates),
      PropertyTable.load(spark, s"$dir/pt", stats.predicates, multi),
      stats,
    )
  }
}
