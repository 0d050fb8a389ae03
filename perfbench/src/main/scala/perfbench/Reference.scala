package perfbench

import java.sql.DriverManager

import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.Row

import repro.sparql.BgpSql
import repro.watdiv.WatDivQueries.NamedQuery

/** An order-independent digest of a result bag: the row count and the
  * wrapping sum of a 64-bit hash per row. Values are hashed in
  * column-name order, so column order does not matter either.
  */
final case class Fingerprint(rows: Long, hash: Long)

object Fingerprint {

  private def rowHash(values: Seq[String]): Long = {
    val text = values.map(v => if (v == null) "\u0001null" else v).mkString("\u0000")
    (MurmurHash3.stringHash(text, 0x9747b28c).toLong << 32) |
      (MurmurHash3.stringHash(text, 0x5bd1e995).toLong & 0xffffffffL)
  }

  /** Digest of rows whose cells are read with `cell(row, columnIndex)`. */
  def of[R](columns: Seq[String], rows: Iterator[R])(cell: (R, Int) => String): Fingerprint = {
    val order = columns.indices.sortBy(columns(_))
    var n = 0L
    var sum = 0L
    rows.foreach { r =>
      n += 1
      sum += rowHash(order.map(cell(r, _)))
    }
    Fingerprint(n, sum)
  }

  /** Digest of rows collected from Spark. */
  def ofSpark(columns: Seq[String], rows: Array[Row]): Fingerprint =
    of(columns, rows.iterator)((r, i) => if (r.isNullAt(i)) null else r.get(i).toString)
}

/** Expected answers, computed once per run by DuckDB from the same source
  * dump the store was loaded from: DuckDB reads the tab-separated part
  * files directly and runs the independent SQL translation of each query
  * ([[BgpSql.toSql]]).
  */
object Reference {

  def fingerprints(sourceDir: String, queries: Seq[NamedQuery]): Map[String, Fingerprint] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val stmt = conn.createStatement()
      stmt.execute(
        s"""CREATE TABLE triples AS SELECT * FROM read_csv('$sourceDir/part-*',
           |  delim = '\t', header = false, quote = '', escape = '', auto_detect = false,
           |  columns = {'s': 'VARCHAR', 'p': 'VARCHAR', 'o': 'VARCHAR'})""".stripMargin)
      queries.map { nq =>
        val rs = stmt.executeQuery(BgpSql.toSql(nq.query))
        val meta = rs.getMetaData
        val columns = (1 to meta.getColumnCount).map(meta.getColumnLabel)
        val rows = Iterator.continually(rs).takeWhile(_.next())
        val fp = Fingerprint.of(columns, rows)((r, i) => r.getString(i + 1))
        rs.close()
        nq.name -> fp
      }.toMap
    } finally conn.close()
  }
}
