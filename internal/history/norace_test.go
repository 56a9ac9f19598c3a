//go:build !race

package history_test

// oracleStride thins the corpus-wide differential tests to every n-th
// project; without the race detector they check every one.
const oracleStride = 1
