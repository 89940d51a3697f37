//go:build !amd64 || purego

package synth

// This build has no vector body: the Go loop sums every lane.
func sumModesVec(row, sa, ca, p, q []float64) int { return 0 }
