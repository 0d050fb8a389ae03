package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.util.Tsv

/** Per-predicate statistics, exactly the two measures the paper gathers at
  * load time (Section 3.3): "(1) the total number of triples and (2) the
  * number of distinct subjects for each predicate", plus the maximum
  * per-subject multiplicity, which the Property Table builder needs to
  * decide between a scalar and a list column.
  */
final case class PredicateStats(
    predicate: String,
    tripleCount: Long,
    distinctSubjects: Long,
    maxPerSubject: Long,
) {
  /** True if at least one subject holds several objects for this predicate. */
  def isMultiValued: Boolean = maxPerSubject > 1
}

/** Statistics for a whole graph, keyed by predicate. */
final case class GraphStats(byPredicate: Map[String, PredicateStats]) {

  /** Stats for `predicate`; zero-stats if the predicate never occurs. */
  def apply(predicate: String): PredicateStats =
    byPredicate.getOrElse(predicate, PredicateStats(predicate, 0L, 0L, 0L))

  /** True if the graph contains the predicate at all. */
  def hasPredicate(predicate: String): Boolean = byPredicate.contains(predicate)

  /** All predicates, sorted (drives stable column/path naming). */
  def predicates: Seq[String] = byPredicate.keys.toSeq.sorted

  /** Total number of triples in the graph. */
  def totalTriples: Long = byPredicate.valuesIterator.map(_.tripleCount).sum
}

object GraphStats {

  /** Compute the statistics in a single aggregation pass over the graph.
    * The result is collected to the driver: the predicate set of an RDF
    * schema is small (tens of entries), as in the paper's setting.
    */
  def compute(triples: DataFrame): GraphStats = {
    val rows = triples
      .groupBy("p", "s").agg(count(lit(1)) as "per_subject")
      .groupBy("p").agg(
        sum("per_subject")   as "triple_count",
        count(lit(1))        as "distinct_subjects",
        max("per_subject")   as "max_per_subject",
      )
      .collect()
    GraphStats(rows.map { r =>
      val p = r.getString(0)
      p -> PredicateStats(p, r.getLong(1), r.getLong(2), r.getLong(3))
    }.toMap)
  }

  /** Persist as `stats.tsv`: one line per predicate with its tripleCount,
    * distinctSubjects and maxPerSubject. Every store writes this file.
    */
  def write(stats: GraphStats, path: String): Unit =
    Tsv.write(path, stats.predicates.map { p =>
      val st = stats(p)
      Seq(p, st.tripleCount, st.distinctSubjects, st.maxPerSubject)
    })

  /** Read stats written by [[write]]; a malformed line fails naming the
    * file and the line number.
    */
  def read(path: String): GraphStats =
    GraphStats(Tsv.read(path, 4) { case Array(p, c, d, m) =>
      p -> PredicateStats(p, c.toLong, d.toLong, m.toLong)
    }.toMap)
}
