// String building and exception handling: decimal-digit counts via
// int-to-string concatenation, and a throw/catch/finally loop.
class Boom(val code: Int) extends Throwable
object Main {
  def main(args: Array[String]): Unit = {
    var digits = 0
    var i = 1
    while (i <= 99999) {
      val s = "" + i
      digits = digits + s.length
      i = i + 1
    }
    println(digits)
    var lines = 0
    var chars = 0
    while (lines < 200) {
      var line = ""
      var k = 0
      while (k < 50) {
        line = line + "ab"
        k = k + 1
      }
      chars = chars + line.length
      lines = lines + 1
    }
    println(chars)
    var ok = 0
    var caught = 0
    var codes = 0
    var finals = 0
    i = 0
    while (i < 20000) {
      try {
        if (i % 7 == 0) throw new Boom(i / 7)
        ok = ok + 1
      } catch {
        case b: Boom =>
          caught = caught + 1
          codes = codes + b.code
      } finally {
        finals = finals + 1
      }
      i = i + 1
    }
    println(ok)
    println(caught)
    println(codes)
    println(finals)
  }
}
