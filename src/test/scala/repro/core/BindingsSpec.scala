package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.sparql.{Iri, TriplePattern, Var}

class BindingsSpec extends AnyFunSuite {

  private def tp(s: String, p: String, o: String) =
    TriplePattern(Var(s), Iri(p), Var(o))

  test("greedy order takes the lightest connected pattern, ties in query order") {
    val a = tp("x", "ex:a", "y")
    val b = tp("z", "ex:b", "w") // the lightest
    val c = tp("y", "ex:c", "z")
    val d = tp("y", "ex:d", "v")
    val weights = Map("ex:a" -> 5.0, "ex:b" -> 1.0, "ex:c" -> 5.0, "ex:d" -> 5.0)
    val order = Bindings.greedyOrder(Seq(a, b, c, d))(t => weights(t.p.value))
    // b first; then c, the only pattern sharing a variable (?z); then a
    // and d both share ?y and tie at 5.0, so query order decides.
    assert(order == Seq(b, c, a, d))
  }
}
