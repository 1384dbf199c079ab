// Virtual dispatch and case-class matching over a four-class shape
// hierarchy. Every call site sees all four receiver classes in turn, so
// the monomorphic inline caches miss and refill constantly (megamorphic).
abstract class Shape {
  def area(): Int
  def sides(): Int
}
case class Sq(a: Int) extends Shape {
  def area(): Int = a * a
  def sides(): Int = 4
}
case class Rect(w: Int, h: Int) extends Shape {
  def area(): Int = w * h
  def sides(): Int = 4
}
case class Tri(b: Int, h: Int) extends Shape {
  def area(): Int = b * h / 2
  def sides(): Int = 3
}
case class Hex(s: Int) extends Shape {
  def area(): Int = 6 * s
  def sides(): Int = 6
}
object Main {
  def weight(s: Shape): Int = s match {
    case Sq(a) => a
    case Rect(w, h) => w + h
    case Tri(b, _) => b
    case Hex(x) => 2 * x
  }
  def build(n: Int): Array[Shape] = {
    val shapes = new Array[Shape](n)
    var i = 0
    while (i < n) {
      val j = (i / 4) % 10 + 1
      val kind = i % 4
      if (kind == 0) shapes(i) = Sq(j)
      else if (kind == 1) shapes(i) = Rect(j, 3)
      else if (kind == 2) shapes(i) = Tri(2 * j, 5)
      else shapes(i) = Hex(j)
      i = i + 1
    }
    shapes
  }
  def main(args: Array[String]): Unit = {
    val shapes = build(4000)
    var area = 0
    var sides = 0
    var weights = 0
    var pass = 0
    while (pass < 20) {
      var i = 0
      while (i < shapes.length) {
        val s = shapes(i)
        area = area + s.area()
        sides = sides + s.sides()
        weights = weights + weight(s)
        i = i + 1
      }
      pass = pass + 1
    }
    println(area)
    println(sides)
    println(weights)
    var unitSquares = 0
    var i = 0
    while (i < shapes.length) {
      if (shapes(i) == Sq(1)) unitSquares = unitSquares + 1
      i = i + 1
    }
    println(unitSquares)
  }
}
