package repro.core

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit}

import repro.sparql.{Iri, Lit, Term, TriplePattern, Var}

/** The DataFrame building blocks every Spark SQL engine shares: one
  * pattern's bindings over an `(s, o)` table, a greedy connected join
  * order, and the join of two binding tables on their shared variables.
  * A binding table has one column per variable, named after it.
  */
object Bindings {

  /** The constant a term stands for, if it is not a variable. */
  def constant(t: Term): Option[String] = t match {
    case Iri(c) => Some(c)
    case Lit(c) => Some(c)
    case _: Var => None
  }

  /** Bindings of `tp` over `table`, whose `s` and `o` columns hold the
    * subjects and objects of `tp`'s predicate: `?x p ?x` becomes an
    * `s = o` filter, each constant an equality filter, and each variable a
    * column.
    */
  def ofPattern(tp: TriplePattern, table: DataFrame): DataFrame = {
    val selfJoined = (tp.s, tp.o) match {
      case (sv: Var, ov: Var) if sv == ov => table.where(col("s") === col("o"))
      case _                               => table
    }
    val filtered = Seq("s" -> tp.s, "o" -> tp.o).foldLeft(selfJoined) { case (df, (c, term)) =>
      constant(term).fold(df)(v => df.where(col(c) === v))
    }
    val cols = Seq(
      tp.s match { case Var(n) => Some(col("s") as n); case _ => None },
      tp.o match { case Var(n) if tp.o != tp.s => Some(col("o") as n); case _ => None },
    ).flatten
    // A fully-ground pattern binds nothing but still constrains: keep a
    // marker column so its row count survives the projection.
    if (cols.isEmpty) filtered.select(lit(true) as s"__ground_${tp.p.value.hashCode.abs}")
    else filtered.select(cols: _*)
  }

  /** Greedy connected join order: repeatedly take the lightest pattern
    * that shares a variable with those already taken (any pattern when
    * none does). Ties go to the pattern that comes first in the query.
    */
  def greedyOrder(patterns: Seq[TriplePattern])(weight: TriplePattern => Double): Seq[TriplePattern] = {
    val remaining = ArrayBuffer(patterns: _*)
    val ordered = Vector.newBuilder[TriplePattern]
    var bound = Set.empty[Var]
    while (remaining.nonEmpty) {
      val connected = remaining.filter(_.variables.exists(bound.contains))
      val next = (if (connected.isEmpty) remaining else connected).minBy(weight)
      remaining -= next
      ordered += next
      bound ++= next.variables
    }
    ordered.result()
  }

  /** A table size cut by 100 for each constant in `tp`'s subject and
    * object: the weight SPARQLGX and S2RDF order their joins by.
    */
  def discountConstants(size: Long, tp: TriplePattern): Double =
    Seq(tp.s, tp.o).foldLeft(size.toDouble)((w, t) => if (t.isVariable) w else w * 0.01)

  /** Inner join on the shared variable columns; a cross join when none. */
  def join(left: DataFrame, right: DataFrame): DataFrame = {
    val shared = left.columns.toSeq.intersect(right.columns.toSeq)
    if (shared.isEmpty) left.crossJoin(right) else left.join(right, shared, "inner")
  }

  /** The solution: the projected variables' columns, DISTINCT if asked. */
  def project(df: DataFrame, projection: Seq[Var], distinct: Boolean): DataFrame = {
    val out = df.select(projection.map(v => col(v.name)): _*)
    if (distinct) out.distinct() else out
  }
}
