package repro.baselines

import java.nio.file.{Files, Paths}

import scala.jdk.StreamConverters._

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Bindings, Engine, GraphStats, VpStore}
import repro.sparql.{BgpQuery, TriplePattern, Var}
import repro.util.Tsv

/** Behaviour-faithful S2RDF stand-in (Schätzle et al., VLDB 2016).
  *
  * S2RDF extends Vertical Partitioning with **ExtVP**: for every predicate
  * pair and join position it precomputes the semi-join reduction of one VP
  * table against the other, so at query time each triple pattern can read
  * a table already stripped of dangling tuples. That is what makes it the
  * fastest *querier* and by far the slowest/largest *loader* in the
  * paper's Tables 1–2 — the trade-off we reproduce.
  *
  * Positions (as in S2RDF's default configuration): SS (subject–subject),
  * SO (subject of p1 = object of p2), OS (object of p1 = subject of p2).
  * OO is not materialised; patterns joining object–object fall back to VP.
  */
final class S2RdfLike(
    vp: VpStore,
    stats: GraphStats,
    ext: Map[String, DataFrame],                   // position -> (p1, p2, s, o)
    extSizes: Map[(String, String, String), Long], // (pos, p1, p2) -> rows
) extends Engine {

  val name: String = S2RdfLike.name

  /** Pick the smallest applicable table for pattern `tp` within `query`:
    * every other pattern sharing a variable offers a candidate reduction;
    * the smallest one wins, VP is the fallback.
    */
  private[baselines] def chooseTable(tp: TriplePattern, query: BgpQuery): (DataFrame, Long) = {
    val p1 = tp.p.value
    val vpSize = stats(p1).tripleCount
    val candidates = for {
      other <- query.patterns if other ne tp
      pos <- Seq(
        (tp.s, other.s, "SS"), (tp.s, other.o, "SO"), (tp.o, other.s, "OS"),
      ).collect { case (a: Var, b: Var, p) if a == b => p }
      size <- extSizes.get((pos, p1, other.p.value))
    } yield (pos, other.p.value, size)
    candidates.minByOption(_._3) match {
      case Some((pos, p2, size)) if size < vpSize =>
        (ext(pos).where(col("p1") === p1 && col("p2") === p2).select("s", "o"), size)
      case _ => (vp.tableFor(p1), vpSize)
    }
  }

  /** Run a query: per-pattern table selection, then size-ordered,
    * connectivity-aware DataFrame joins (S2RDF runs on Spark SQL).
    */
  def query(q: BgpQuery): DataFrame = {
    val chosen: Map[TriplePattern, (DataFrame, Long)] =
      q.patterns.map(tp => tp -> chooseTable(tp, q)).toMap
    val ordered = Bindings.greedyOrder(q.patterns)(tp => Bindings.discountConstants(chosen(tp)._2, tp))
    val joined = ordered.map(tp => Bindings.ofPattern(tp, chosen(tp)._1)).reduceLeft(Bindings.join)
    Bindings.project(joined, q.effectiveProjection, q.distinct)
  }
}

object S2RdfLike extends Engine.Store[S2RdfLike] {

  val name = "S2RDF"

  val Positions: Seq[String] = Seq("SS", "SO", "OS")

  private def sizesOf(ext: Map[String, DataFrame]): Map[(String, String, String), Long] =
    ext.flatMap { case (pos, df) =>
      df.groupBy("p1", "p2").count().collect()
        .map(r => (pos, r.getString(0), r.getString(1)) -> r.getLong(2))
    }

  /** S2RDF loading phase (the Table 1 cost): VP Parquet + the three ExtVP
    * families + stats + size metadata.
    *
    * Faithful to the original system, the reductions are computed **one
    * predicate at a time** (S2RDF issues one SQL job per ExtVP table
    * family) — this per-table job storm, not the byte volume, is what
    * makes its loading phase an order of magnitude slower than everyone
    * else's in the paper's Table 1.
    */
  protected def write(triples: DataFrame, dir: String): Unit = {
    val cached = triples.cache()
    val stats = GraphStats.compute(cached)
    VpStore.write(cached, stats, s"$dir/vp")

    val bySubject = cached.select(col("p") as "p2", col("s") as "k").distinct().cache()
    val byObject  = cached.select(col("p") as "p2", col("o") as "k").distinct().cache()
    for (pos <- Positions) {
      val out = Paths.get(s"$dir/extvp_$pos")
      if (Files.exists(out)) Files.walk(out).toScala(Seq).reverse.foreach(Files.delete)
    }
    stats.predicates.foreach { p1 =>
      val left = cached.where(col("p") === p1)
        .select(lit(p1) as "p1", col("s"), col("o"))
      def append(pos: String, df: DataFrame): Unit =
        df.select("p1", "p2", "s", "o")
          .write.mode("append").partitionBy("p1", "p2").parquet(s"$dir/extvp_$pos")
      append("SS", left.join(bySubject.where(col("p2") =!= p1), left("s") === bySubject("k")))
      append("SO", left.join(byObject, left("s") === byObject("k")))
      append("OS", left.join(bySubject, left("o") === bySubject("k")))
    }
    bySubject.unpersist(); byObject.unpersist()
    val sizes = sizesOf(Positions.map(pos =>
      pos -> cached.sparkSession.read.parquet(s"$dir/extvp_$pos")).toMap)
    Tsv.write(s"$dir/ext_sizes.tsv", sizes.toSeq.sortBy(_.toString).map {
      case ((pos, p1, p2), n) => Seq(pos, p1, p2, n)
    })
    GraphStats.write(stats, s"$dir/stats.tsv")
    cached.unpersist()
  }

  /** Open a store written by [[writeTo]]. */
  def loadFrom(spark: SparkSession, dir: String): S2RdfLike = {
    val stats = GraphStats.read(s"$dir/stats.tsv")
    val ext = Positions.map(pos => pos -> spark.read.parquet(s"$dir/extvp_$pos")).toMap
    val sizes = Tsv.read(s"$dir/ext_sizes.tsv", 4) { case Array(pos, p1, p2, n) =>
      (pos, p1, p2) -> n.toLong
    }.toMap
    new S2RdfLike(VpStore.load(spark, s"$dir/vp", stats.predicates), stats, ext, sizes)
  }
}
