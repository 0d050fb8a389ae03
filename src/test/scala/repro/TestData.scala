package repro

import java.nio.file.Files

import org.apache.spark.sql.DataFrame

import repro.baselines.{RyaLike, S2RdfLike, SparqlGxLike}
import repro.core.{Engine, GraphStats, Prost, ProstDb}
import repro.sparql.{BgpQuery, BgpSql}
import repro.watdiv.WatDivGen

/** Shared fixtures for the whole test run: one small WatDiv-like graph and
  * one store of every engine, each written through its one load path
  * (`writeTo`) under a temp dir. All are lazy against the shared
  * SparkSession, so the expensive parts (generation, PT aggregation,
  * ExtVP precomputation) run once per JVM.
  */
object TestData {

  /** ~6k triples; large enough that every benchmark query is non-trivial,
    * small enough for the DuckDB oracle to ingest per assertion.
    */
  val Scale = 0.05

  lazy val triples: DataFrame = {
    val df = WatDivGen.generate(SparkSpec.shared, Scale).cache()
    df.count() // force materialisation once
    df
  }

  lazy val stats: GraphStats = GraphStats.compute(triples)

  private lazy val storeRoot = Files.createTempDirectory("watdiv-stores").toString

  /** Where `system`'s store of [[triples]] is written. */
  def storeDir(system: Engine.Store[Engine]): String = s"$storeRoot/${system.name}"

  lazy val prost: ProstDb = Prost.writeTo(triples, storeDir(Prost))

  lazy val sparqlGx: SparqlGxLike = SparqlGxLike.writeTo(triples, storeDir(SparqlGxLike))

  lazy val s2rdf: S2RdfLike = S2RdfLike.writeTo(triples, storeDir(S2RdfLike))

  lazy val rya: RyaLike = RyaLike.writeTo(triples, storeDir(RyaLike))

  /** Assert `result` matches DuckDB's answer for `query` over the shared
    * graph — the central correctness check of the reproduction.
    */
  def oracleCheck(result: DataFrame, query: BgpQuery): Unit =
    Oracle.assertEquivalent(result, BgpSql.toSql(query), "triples" -> triples)
}
