//go:build race

package history_test

// oracleStride thins the corpus-wide differential tests to every n-th
// project. They check one goroutine's pure computation, where the race
// detector finds nothing, and at its ~10x cost the full sweep takes minutes.
const oracleStride = 8
