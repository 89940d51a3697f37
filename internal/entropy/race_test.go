//go:build race

package entropy

// raceEnabled: the race detector makes sync.Pool drop buffers at random,
// so pooled-allocation counts do not hold under it.
const raceEnabled = true
