package repro.baselines

import java.nio.file.Files

import repro.{Oracle, SparkSpec, TestData}
import repro.sparql.SparqlParser
import repro.util.Tsv
import repro.watdiv.WatDivQueries

class S2RdfLikeSpec extends SparkSpec {

  /** The store [[TestData.s2rdf]] wrote, shared by the whole run. */
  private def dir: String = { TestData.s2rdf; TestData.storeDir(S2RdfLike) }

  for (nq <- WatDivQueries.All) {
    test(s"${nq.name}: S2RDF-like matches the oracle") {
      TestData.oracleCheck(TestData.s2rdf.query(nq.query), nq.query)
    }
  }

  test("ExtVP OS table is a semi-join reduction (never larger than VP)") {
    // likes.o joins caption.s: the reduction keeps only likes rows whose
    // product has a caption.
    val q = SparqlParser.parse(
      "SELECT * WHERE { ?a wsdbm:likes ?b . ?b sorg:caption ?c }")
    val likes = q.patterns.head
    val (table, size) = TestData.s2rdf.chooseTable(likes, q)
    val vpSize = TestData.stats("wsdbm:likes").tripleCount
    assert(size <= vpSize)
    assert(table.count() == size)
  }

  test("a reduction is chosen when it is strictly smaller than VP") {
    // caption coverage is 50%, so likes ⋉ caption is well under VP size.
    val q = SparqlParser.parse(
      "SELECT * WHERE { ?a wsdbm:likes ?b . ?b sorg:caption ?c }")
    val (_, size) = TestData.s2rdf.chooseTable(q.patterns.head, q)
    assert(size < TestData.stats("wsdbm:likes").tripleCount)
  }

  test("isolated pattern falls back to plain VP") {
    val q = SparqlParser.parse("SELECT * WHERE { ?a wsdbm:likes ?b }")
    val (_, size) = TestData.s2rdf.chooseTable(q.patterns.head, q)
    assert(size == TestData.stats("wsdbm:likes").tripleCount)
  }

  test("object-object joins fall back to VP (OO not materialised)") {
    val q = SparqlParser.parse(
      "SELECT * WHERE { ?a wsdbm:likes ?x . ?b wsdbm:purchaseFor ?x }")
    val (_, size) = TestData.s2rdf.chooseTable(q.patterns.head, q)
    assert(size == TestData.stats("wsdbm:likes").tripleCount)
  }

  test("parquet write/load round trip answers queries correctly") {
    val loaded = S2RdfLike.loadFrom(spark, dir)
    TestData.oracleCheck(loaded.query(WatDivQueries.L1.query), WatDivQueries.L1.query)
    TestData.oracleCheck(loaded.query(WatDivQueries.F1.query), WatDivQueries.F1.query)
  }

  test("the written store contains VP and the three ExtVP families") {
    for (sub <- Seq("vp", "extvp_SS", "extvp_SO", "extvp_OS"))
      assert(Files.exists(java.nio.file.Paths.get(s"$dir/$sub")), sub)
  }

  test("ExtVP holds many more tuples than VP alone (the paper's Table 1 point)") {
    // Byte sizes at this tiny scale are dominated by per-file overhead, so
    // the storage-blowup claim is asserted on row counts here; the Table 1
    // bench shows it in bytes at a realistic scale.
    val extRows = S2RdfLike.Positions
      .map(p => spark.read.parquet(s"$dir/extvp_$p").count()).sum
    val vpRows = TestData.triples.count()
    assert(extRows > 3 * vpRows, s"extRows=$extRows vpRows=$vpRows")
  }

  test("every ext_sizes.tsv count equals a DuckDB semi-join count") {
    // The query oracle cannot see an ExtVP table that was never reduced
    // (the join still gives the right answer), so check the written
    // reductions themselves: for each position and predicate pair, the
    // number of p1 triples with a join partner among the p2 triples.
    val sizes = Tsv.read(s"$dir/ext_sizes.tsv", 4) { case Array(pos, p1, p2, n) =>
      (pos, p1, p2, n.toLong)
    }
    assert(sizes.map(_._1).toSet == S2RdfLike.Positions.toSet)
    def semiJoin(pos: String, l: String, r: String, samePredicate: String) =
      s"""SELECT '$pos' AS pos, t.p AS p1, q.p AS p2, count(*) AS n
         |FROM triples t, (SELECT DISTINCT p FROM triples) q
         |WHERE $samePredicate EXISTS (SELECT 1 FROM triples u WHERE u.p = q.p AND u.$r = t.$l)
         |GROUP BY t.p, q.p""".stripMargin
    Oracle.assertEquivalent(
      spark.createDataFrame(sizes).toDF("pos", "p1", "p2", "n"),
      Seq(semiJoin("SS", "s", "s", "t.p <> q.p AND"), semiJoin("SO", "s", "o", ""),
          semiJoin("OS", "o", "s", "")).mkString("\nUNION ALL\n"),
      "triples" -> TestData.triples)
  }
}
