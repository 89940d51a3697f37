//go:build !purego

package synth

// sumModesAVX2 is sumModes' AVX2 body (lattice_amd64.s) over lanes [0, n)
// of row, n a positive multiple of 8, for at least one mode; stride is
// the lane count from one mode's table row to the next.
//
//go:noescape
func sumModesAVX2(row, sa, ca, p, q *float64, modes, stride, n int)

// sumModesVec runs sumModes' AVX2 body over the whole groups of 8 lanes of
// row and returns how many lanes it set: none with the body off.
func sumModesVec(row, sa, ca, p, q []float64) int {
	n := len(row) &^ 7
	if !useAVX2 || n == 0 || len(p) == 0 {
		return 0
	}
	last := (len(p)-1)*len(row) + n - 1
	_, _, _ = q[len(p)-1], sa[last], ca[last]
	sumModesAVX2(&row[0], &sa[0], &ca[0], &p[0], &q[0], len(p), len(row), n)
	return n
}
