// Sieve of Eratosthenes over [0, 100000]: prime counts at four limits,
// the sum of the primes below 1000, and the largest prime below 10^5.
object Main {
  def sieve(n: Int): Array[Boolean] = {
    val composite = new Array[Boolean](n + 1)
    composite(0) = true
    composite(1) = true
    var p = 2
    while (p * p <= n) {
      if (!composite(p)) {
        var m = p * p
        while (m <= n) {
          composite(m) = true
          m = m + p
        }
      }
      p = p + 1
    }
    composite
  }
  def countBelow(composite: Array[Boolean], limit: Int): Int = {
    var count = 0
    var i = 0
    while (i < limit) {
      if (!composite(i)) count = count + 1
      i = i + 1
    }
    count
  }
  def main(args: Array[String]): Unit = {
    val composite = sieve(100000)
    println(countBelow(composite, 100))
    println(countBelow(composite, 1000))
    println(countBelow(composite, 10000))
    println(countBelow(composite, 100000))
    var sum = 0
    var i = 0
    while (i < 1000) {
      if (!composite(i)) sum = sum + i
      i = i + 1
    }
    println(sum)
    var largest = 100000
    while (composite(largest)) largest = largest - 1
    println(largest)
  }
}
