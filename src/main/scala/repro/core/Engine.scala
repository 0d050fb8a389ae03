package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.sparql.BgpQuery

/** One system under evaluation — PRoST or a baseline — answering parsed
  * BGPs with a DataFrame that has one string column per projected
  * variable, under bag semantics.
  */
trait Engine {
  def name: String
  def query(q: BgpQuery): DataFrame
}

object Engine {

  /** An engine's one load path, implemented by its companion: `writeTo`
    * writes the on-disk layout (the Table 1 cost), then reopens it with
    * `loadFrom` exactly as a later session would.
    */
  trait Store[+E <: Engine] {
    def name: String

    /** Write the layout for `triples` under `dir`. */
    protected def write(triples: DataFrame, dir: String): Unit

    /** Open a layout previously written under `dir`. */
    def loadFrom(spark: SparkSession, dir: String): E

    final def writeTo(triples: DataFrame, dir: String): E = {
      write(triples, dir)
      loadFrom(triples.sparkSession, dir)
    }
  }
}
