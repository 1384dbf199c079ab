// Higher-order folds over closures: power sums 1..n (n = 300, so every
// sum fits the 32-bit Int), a composed closure, and a closure that
// mutates a captured local, repeated for 100 rounds.
object Main {
  def foldRange(lo: Int, hi: Int, z: Int, f: (Int, Int) => Int): Int = {
    var acc = z
    var i = lo
    while (i <= hi) {
      acc = f(acc, i)
      i = i + 1
    }
    acc
  }
  def compose(f: Int => Int, g: Int => Int): Int => Int = (x: Int) => f(g(x))
  def main(args: Array[String]): Unit = {
    val n = 300
    val oddSquare = compose((x: Int) => x * x, (x: Int) => 2 * x + 1)
    var s1 = 0
    var s2 = 0
    var s3 = 0
    var s4 = 0
    var evens = 0
    var round = 0
    while (round < 100) {
      s1 = foldRange(1, n, 0, (acc: Int, i: Int) => acc + i)
      s2 = foldRange(1, n, 0, (acc: Int, i: Int) => acc + i * i)
      s3 = foldRange(1, n, 0, (acc: Int, i: Int) => acc + i * i * i)
      s4 = foldRange(1, n, 0, (acc: Int, i: Int) => acc + oddSquare(i))
      foldRange(1, n, 0, (acc: Int, i: Int) => {
        if (i % 2 == 0) evens = evens + 1
        acc + 1
      })
      round = round + 1
    }
    println(s1)
    println(s2)
    println(s3)
    println(s4)
    println(evens)
  }
}
