package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{StringType, StructField, StructType}

/** The Vertical Partitioning half of the PRoST data model: one `(s, o)`
  * table per distinct predicate (Abadi et al. 2007), Parquet on disk.
  *
  * `tableFor` returns an *empty* two-column table for predicates absent
  * from the graph, so a query naming an unknown predicate evaluates to the
  * empty result instead of failing — matching SPARQL semantics.
  */
final class VpStore(
    val spark: SparkSession,
    tables: Map[String, DataFrame],
) {

  private lazy val emptyTable: DataFrame =
    spark.createDataFrame(
      spark.sparkContext.emptyRDD[org.apache.spark.sql.Row],
      StructType(Seq(StructField("s", StringType), StructField("o", StringType))),
    )

  /** The `(s, o)` table of `predicate` (empty table if unknown). */
  def tableFor(predicate: String): DataFrame =
    tables.getOrElse(predicate, emptyTable)

  /** Predicates with a table. */
  def predicates: Seq[String] = tables.keys.toSeq.sorted
}

object VpStore {

  /** Write the VP layout — one Parquet directory per predicate — in a
    * single partitioned pass (`partitionBy("p")`), the way a real loader
    * shuffles once instead of running one job per predicate.
    */
  def write(triples: DataFrame, stats: GraphStats, dir: String): Unit =
    triples.select("s", "o", "p").repartition(col("p"))
      .write.mode("overwrite").partitionBy("p").parquet(dir)

  /** Load a store written by [[write]]. Each predicate's table is a
    * partition-pruned view over the partitioned directory, so `tableFor`
    * scans only that predicate's files.
    */
  def load(spark: SparkSession, dir: String, predicates: Seq[String]): VpStore = {
    val all = spark.read.parquet(dir)
    val tables = predicates.map(p => p -> all.where(col("p") === p).select("s", "o")).toMap
    new VpStore(spark, tables)
  }
}
