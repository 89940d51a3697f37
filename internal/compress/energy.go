package compress

import "stwave/internal/num"

// Energy is the dropped-energy curve of a set of coefficients: per bucket
// of the selection's monotone magnitude map (bucketOf), how many
// coefficients fall in it and the sum of their squares. Keeping the k
// largest magnitudes drops every bucket below the one the cut falls in and
// a share of that one, so Keep reads the keep count for any energy budget
// from one histogram, without a sort.
type Energy struct {
	count [histSize]int
	sumSq [histSize]float64
}

// EnergyOf bins the squared magnitudes of every coefficient of slices at
// precision F, reading them once in order. A NaN ranks above every
// finite magnitude and makes its bucket's sum NaN.
func EnergyOf[F num.Float](slices [][]F) *Energy {
	e := new(Energy)
	for _, s := range slices {
		for _, v := range s {
			b := bucketOf[F](magKey(v))
			e.count[b]++
			e.sumSq[b] += float64(float64(v) * float64(v)) // unfused, so every target sums alike
		}
	}
	return e
}

// Keep returns the fewest largest magnitudes that leave at most budget
// of the squared sum outside them, reading the bucket the cut falls in
// as evenly filled: within it the dropped share is linear in the count.
// A NaN budget or sum keeps the whole bucket it meets.
func (e *Energy) Keep(budget float64) int {
	below, b := 0.0, 0
	for ; b < histSize && below+e.sumSq[b] <= budget; b++ {
		below += e.sumSq[b]
	}
	if b == histSize {
		return 0
	}
	frac := (budget - below) / e.sumSq[b]
	if !(frac >= 0) {
		frac = 0
	}
	keep := e.count[b] - int(float64(e.count[b])*frac)
	for _, n := range e.count[b+1:] {
		keep += n
	}
	return keep
}
