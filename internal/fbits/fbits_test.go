package fbits

import (
	"math"
	"testing"
)

var (
	nan    = math.NaN()
	inf    = math.Inf(1)
	negInf = math.Inf(-1)
	neg0   = math.Copysign(0, -1)
	sub    = math.SmallestNonzeroFloat64
)

func TestZero(t *testing.T) {
	cases := []struct {
		x    float64
		want bool
	}{
		{0, true},
		{neg0, true},
		{sub, false},
		{-sub, false},
		{1, false},
		{inf, false},
		{negInf, false},
		{nan, false},
	}
	for _, tc := range cases {
		if got := Zero(tc.x); got != tc.want {
			t.Errorf("Zero(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	// float32 instantiation: the f64 subnormal rounds to zero at 32 bits,
	// so its own smallest subnormal stands in.
	for _, tc := range []struct {
		x    float32
		want bool
	}{
		{0, true},
		{float32(neg0), true},
		{math.SmallestNonzeroFloat32, false},
		{-math.SmallestNonzeroFloat32, false},
		{1, false},
		{float32(inf), false},
		{float32(nan), false},
	} {
		if got := Zero(tc.x); got != tc.want {
			t.Errorf("Zero[float32](%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestEqMatchesIEEE(t *testing.T) {
	vals := []float64{0, neg0, sub, -sub, 1, -1, math.Pi, inf, negInf, nan, math.MaxFloat64}
	for _, a := range vals {
		for _, b := range vals {
			want := a == b //stlint:ignore floateq the reference semantics under test
			if got := Eq(a, b); got != want {
				t.Errorf("Eq(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestSame(t *testing.T) {
	if !Same(nan, nan) {
		t.Error("Same(NaN, NaN) = false, want true for identical payloads")
	}
	if Same(0, neg0) {
		t.Error("Same(+0, -0) = true, want false")
	}
	if !Same(math.Pi, math.Pi) {
		t.Error("Same(Pi, Pi) = false, want true")
	}
	if Same(1, 2) {
		t.Error("Same(1, 2) = true, want false")
	}
}
