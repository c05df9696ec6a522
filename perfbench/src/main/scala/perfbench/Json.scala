package perfbench

/** Minimal JSON writer for the benchmark's result line and report. */
object Json {

  /** An object whose fields keep their order. */
  final case class Obj(fields: Seq[(String, Any)])
  def obj(fields: (String, Any)*): Obj = Obj(fields)

  def render(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => render(x)
    case Obj(fs) => fs.map { case (k, x) => quote(k) + ":" + render(x) }.mkString("{", ",", "}")
    case m: collection.Map[_, _] =>
      m.toSeq.sortBy(_._1.toString).map { case (k, x) => quote(k.toString) + ":" + render(x) }
        .mkString("{", ",", "}")
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case xs: Iterable[_] => xs.map(render).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
