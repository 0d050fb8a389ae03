package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.util.Names

/** The Property Table half of the PRoST data model (Wilkinson's Jena2
  * scheme): a single wide table with one row per distinct subject and one
  * column per predicate.
  *
  *   - single-valued predicates become scalar string columns (NULL when the
  *     subject lacks the predicate);
  *   - multi-valued predicates become `array<string>` columns (empty array
  *     when absent), flattened with `explode` at query time — the overhead
  *     the paper accepts in exchange for saving joins;
  *   - the paper also partitions the table horizontally on the subject
  *     column; see [[PropertyTable.write]] for why that is not realised;
  *   - Parquet's run-length encoding absorbs the NULL-heavy layout.
  *
  * @param df          the wide table; column `s` plus one column per predicate
  * @param columnFor   predicate IRI -> sanitised column name
  * @param multiValued predicates stored as array columns
  */
final case class PropertyTable(
    df: DataFrame,
    columnFor: Map[String, String],
    multiValued: Set[String],
) {
  /** True if the PT has a column for `predicate`. */
  def hasColumn(predicate: String): Boolean = columnFor.contains(predicate)
}

object PropertyTable {

  /** Build the PT with a single aggregation pass — one
    * `collect_list(struct(p, o))` per subject, then row-local array
    * filters to split it into per-predicate columns. One shuffle total,
    * which is what makes the paper's loading phase cheap ("without any
    * significant overhead").
    */
  def build(triples: DataFrame, stats: GraphStats): PropertyTable = {
    val preds = stats.predicates
    val names = Names.forPredicates(preds)
    val wide = triples.groupBy(col("s"))
      .agg(collect_list(struct(col("p"), col("o"))) as "__props")
    val multi = preds.filter(stats(_).isMultiValued).toSet
    val shaped = wide.select(
      col("s") +: preds.map { p =>
        val values = transform(
          filter(col("__props"), x => x.getField("p") === p),
          x => x.getField("o"))
        if (multi.contains(p)) values.as(names(p))
        else try_element_at(values, lit(1)).as(names(p)) // NULL when absent
      }: _*
    )
    PropertyTable(shaped, names, multi)
  }

  /** Write the PT as Parquet. `groupBy(s)` hash-partitions the wide table
    * by subject before the write, but that partitioning is not preserved:
    * a reloaded PT is plain Parquet, so Spark plans an exchange again for
    * a join on `s`. The paper's subject partitioning is not realised yet.
    */
  def write(pt: PropertyTable, dir: String): Unit =
    pt.df.write.mode("overwrite").parquet(dir)

  /** Load a PT written by [[write]]; `predicates`/`multiValued` come from
    * the stats metadata persisted alongside.
    */
  def load(spark: SparkSession, dir: String, predicates: Seq[String],
           multiValued: Set[String]): PropertyTable =
    PropertyTable(spark.read.parquet(dir), Names.forPredicates(predicates), multiValued)
}
