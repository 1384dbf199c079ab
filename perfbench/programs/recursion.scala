// Call-heavy recursion without allocation in the hot path: naive
// doubly-recursive Fibonacci, and n-queens by backtracking over
// column/diagonal occupancy arrays (solution counts for sizes 6, 7, 8).
object Main {
  def fib(n: Int): Int = if (n < 2) n else fib(n - 1) + fib(n - 2)
  var solutions: Int = 0
  def place(row: Int, n: Int, cols: Array[Boolean], diag1: Array[Boolean],
            diag2: Array[Boolean]): Unit = {
    if (row == n) {
      solutions = solutions + 1
    } else {
      var c = 0
      while (c < n) {
        if (!cols(c) && !diag1(row + c) && !diag2(row - c + n - 1)) {
          cols(c) = true
          diag1(row + c) = true
          diag2(row - c + n - 1) = true
          place(row + 1, n, cols, diag1, diag2)
          cols(c) = false
          diag1(row + c) = false
          diag2(row - c + n - 1) = false
        }
        c = c + 1
      }
    }
  }
  def queens(n: Int): Int = {
    solutions = 0
    place(0, n, new Array[Boolean](n), new Array[Boolean](2 * n - 1),
          new Array[Boolean](2 * n - 1))
    solutions
  }
  def main(args: Array[String]): Unit = {
    println(fib(10))
    println(fib(20))
    println(fib(25))
    println(queens(6))
    println(queens(7))
    println(queens(8))
  }
}
