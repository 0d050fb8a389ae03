package repro.util

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

/** The stores' small tab-separated metadata files (statistics, ExtVP
  * sizes), on the local filesystem like all the reproduction's storage.
  */
object Tsv {

  /** Write one line per row, fields joined by tabs. */
  def write(path: String, rows: Seq[Seq[Any]]): Unit = {
    val p = Paths.get(path)
    Files.createDirectories(p.getParent)
    Files.write(p, rows.map(_.mkString("\t")).asJava, StandardCharsets.UTF_8)
    ()
  }

  /** Parse each non-empty line of `path`, which must have `arity` fields.
    * A wrong field count or a non-numeric number fails with an error that
    * names the file and the line.
    */
  def read[A](path: String, arity: Int)(parse: Array[String] => A): Seq[A] =
    Files.readAllLines(Paths.get(path), StandardCharsets.UTF_8).asScala.toSeq.zipWithIndex
      .collect { case (line, i) if line.nonEmpty =>
        def corrupt(why: String) = new IllegalArgumentException(s"$path:${i + 1}: $why")
        val fields = line.split("\t", -1)
        if (fields.length != arity)
          throw corrupt(s"expected $arity tab-separated fields, found ${fields.length}")
        try parse(fields)
        catch { case e: NumberFormatException => throw corrupt(s"not a number (${e.getMessage})") }
      }
}
