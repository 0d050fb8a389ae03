package perfbench

import repro.watdiv.WatDivQueries
import repro.watdiv.WatDivQueries.NamedQuery

/** The benchmark's workloads: WatDiv's shape classes split by which cost
  * bounds them, so that star-bound and join-bound changes can be told apart.
  * Every run of either workload also loads its store twice (a warm-up load
  * in set-up, a measured one at the end), so the load path is measured on
  * both.
  */
object Workloads {

  /** WatDiv scale of every workload (about 136k triples). The whole
    * benchmark (two workloads, 48 runs, each generating its source and
    * loading its store from scratch) has to fit a one-hour budget on four
    * cores; at scale 1 one run takes about a minute.
    */
  val Scale: Double = 1.0

  /** A named query mix, run by one client in a closed loop after
    * `warmupRounds` untimed rounds.
    */
  final case class Workload(name: String, purpose: String, queries: Seq[NamedQuery], warmupRounds: Int)

  private def named(names: String*): Seq[NamedQuery] =
    names.map(n => WatDivQueries.All.find(_.name == n).getOrElse(sys.error(s"no query $n")))

  /** One Property Table node each (S1 adds one VP join): bound by per-query
    * overhead — translation, planning, per-job cost and PT scan width.
    */
  val Star: Workload = Workload(
    "star",
    "single-subject queries answered from one Property Table scan; overhead-bound",
    named("C3", "L3", "L4", "S1", "S2", "S3", "S4", "S5", "S6", "S7"),
    warmupRounds = 3,
  )

  /** Multi-node Join Trees: exchanges, shuffle bytes and join order. */
  val Join: Workload = Workload(
    "join",
    "multi-node Join Trees with several shuffle joins; exchange- and join-order-bound",
    named("C1", "C2", "F1", "F2", "F3", "F4", "F5", "L1", "L2", "L5"),
    warmupRounds = 1,
  )

  val All: Seq[Workload] = Seq(Star, Join)

  def apply(name: String): Workload =
    All.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (one of ${All.map(_.name).mkString(", ")})"))
}
