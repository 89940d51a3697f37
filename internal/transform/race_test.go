//go:build race

package transform

// raceEnabled: the race detector makes sync.Pool drop buffers at random,
// so pooled-allocation counts do not hold under it.
const raceEnabled = true
