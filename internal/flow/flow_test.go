package flow

import (
	"math"
	"testing"

	"stwave/internal/grid"
)

// uniformSeries builds a series with constant velocity (u0, v0, w0) on an
// n³ grid spanning [0, L]³ over the given time span.
func uniformSeries(t *testing.T, n int, L float64, u0, v0, w0 float64, times []float64) *VectorSeries {
	t.Helper()
	sp := L / float64(n-1)
	var slices []VectorSlice
	for _, tt := range times {
		u := grid.NewField3D(n, n, n)
		v := grid.NewField3D(n, n, n)
		w := grid.NewField3D(n, n, n)
		u.Fill(u0)
		v.Fill(v0)
		w.Fill(w0)
		slices = append(slices, VectorSlice{U: u, V: v, W: w, Time: tt})
	}
	vs, err := NewVectorSeries(Domain{Spacing: Vec3{sp, sp, sp}}, slices)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// rotationSeries builds a rigid-rotation field u = -Ω(y-c), v = Ω(x-c)
// about the domain center.
func rotationSeries(t *testing.T, n int, L, omega float64, times []float64) *VectorSeries {
	t.Helper()
	sp := L / float64(n-1)
	c := L / 2
	var slices []VectorSlice
	for _, tt := range times {
		u := grid.NewField3D(n, n, n)
		v := grid.NewField3D(n, n, n)
		w := grid.NewField3D(n, n, n)
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				Y := float64(y) * sp
				for x := 0; x < n; x++ {
					X := float64(x) * sp
					u.Set(x, y, z, -omega*(Y-c))
					v.Set(x, y, z, omega*(X-c))
				}
			}
		}
		slices = append(slices, VectorSlice{U: u, V: v, W: w, Time: tt})
	}
	vs, err := NewVectorSeries(Domain{Spacing: Vec3{sp, sp, sp}}, slices)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

func TestNewVectorSeriesValidation(t *testing.T) {
	if _, err := NewVectorSeries(Domain{Spacing: Vec3{1, 1, 1}}, nil); err == nil {
		t.Error("expected error for empty series")
	}
	u := grid.NewField3D(4, 4, 4)
	sl := []VectorSlice{{U: u, V: u, W: u, Time: 0}}
	if _, err := NewVectorSeries(Domain{Spacing: Vec3{0, 1, 1}}, sl); err == nil {
		t.Error("expected error for zero spacing")
	}
	bad := []VectorSlice{
		{U: u, V: u, W: u, Time: 0},
		{U: grid.NewField3D(5, 4, 4), V: u, W: u, Time: 1},
	}
	if _, err := NewVectorSeries(Domain{Spacing: Vec3{1, 1, 1}}, bad); err == nil {
		t.Error("expected error for dims mismatch")
	}
	nonMono := []VectorSlice{
		{U: u, V: u, W: u, Time: 1},
		{U: u, V: u, W: u, Time: 1},
	}
	if _, err := NewVectorSeries(Domain{Spacing: Vec3{1, 1, 1}}, nonMono); err == nil {
		t.Error("expected error for non-increasing times")
	}
}

func TestTrilinearExactOnLinearField(t *testing.T) {
	// Trilinear interpolation reproduces any trilinear function exactly.
	f := grid.NewField3D(5, 5, 5)
	fn := func(x, y, z float64) float64 { return 2 + 3*x - y + 0.5*z + 0.25*x*y*z }
	for z := 0; z < 5; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 5; x++ {
				f.Set(x, y, z, fn(float64(x), float64(y), float64(z)))
			}
		}
	}
	pts := [][3]float64{{1.5, 2.25, 3.75}, {0, 0, 0}, {4, 4, 4}, {0.1, 3.9, 2.5}}
	for _, p := range pts {
		got := trilinear(f, p[0], p[1], p[2])
		want := fn(p[0], p[1], p[2])
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("trilinear(%v) = %g, want %g", p, got, want)
		}
	}
}

func TestTrilinearClampsOutside(t *testing.T) {
	f := grid.NewField3D(3, 3, 3)
	f.Fill(7)
	if got := trilinear(f, -5, 10, 1); got != 7 {
		t.Errorf("clamped sample = %g, want 7", got)
	}
}

func TestVelocityTimeInterpolation(t *testing.T) {
	// Two slices with different constant velocities: half-way in time the
	// velocity is the average.
	n := 4
	mk := func(val float64) VectorSlice {
		u := grid.NewField3D(n, n, n)
		v := grid.NewField3D(n, n, n)
		w := grid.NewField3D(n, n, n)
		u.Fill(val)
		return VectorSlice{U: u, V: v, W: w}
	}
	a := mk(1)
	a.Time = 0
	b := mk(3)
	b.Time = 2
	vs, err := NewVectorSeries(Domain{Spacing: Vec3{1, 1, 1}}, []VectorSlice{a, b})
	if err != nil {
		t.Fatal(err)
	}
	p := Vec3{1.5, 1.5, 1.5}
	if got := vs.VelocityAt(p, 1).X; math.Abs(got-2) > 1e-12 {
		t.Errorf("interpolated u = %g, want 2", got)
	}
	// Clamped outside the time range.
	if got := vs.VelocityAt(p, -5).X; got != 1 {
		t.Errorf("before-range u = %g, want 1", got)
	}
	if got := vs.VelocityAt(p, 99).X; got != 3 {
		t.Errorf("after-range u = %g, want 3", got)
	}
}

func TestAdvectUniformFlow(t *testing.T) {
	vs := uniformSeries(t, 8, 100, 2, -1, 0.5, []float64{0, 10})
	pl, err := Advect(vs, Vec3{10, 50, 20}, 0, AdvectOptions{Dt: 0.1, Steps: 50})
	if err != nil {
		t.Fatal(err)
	}
	end := pl.End()
	want := Vec3{10 + 2*5, 50 - 1*5, 20 + 0.5*5}
	if end.Dist(want) > 1e-9 {
		t.Errorf("end = %+v, want %+v", end, want)
	}
	if pl.Duration() != 5 {
		t.Errorf("duration = %g, want 5", pl.Duration())
	}
}

// RK4 through a steady rigid rotation must trace a circle with fourth-order
// accuracy: after a full revolution the particle returns to its start.
func TestAdvectRigidRotationClosesCircle(t *testing.T) {
	omega := 0.5
	vs := rotationSeries(t, 33, 100, omega, []float64{0, 1000})
	seed := Vec3{70, 50, 50} // radius 20 around center (50,50,50)
	period := 2 * math.Pi / omega
	steps := 2000
	dt := period / float64(steps)
	pl, err := Advect(vs, seed, 0, AdvectOptions{Dt: dt, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if d := pl.End().Dist(seed); d > 0.05 {
		t.Errorf("after one revolution particle is %.4g away from start", d)
	}
	// Radius must be conserved along the path.
	c := Vec3{50, 50, 50}
	r0 := seed.Dist(c)
	for i, p := range pl.Points {
		if math.Abs(p.Dist(c)-r0) > 0.3 {
			t.Fatalf("radius drifted to %g at step %d", p.Dist(c), i)
		}
	}
}

func TestAdvectValidation(t *testing.T) {
	vs := uniformSeries(t, 4, 10, 1, 0, 0, []float64{0, 1})
	if _, err := Advect(vs, Vec3{}, 0, AdvectOptions{Dt: 0, Steps: 5}); err == nil {
		t.Error("expected error for zero Dt")
	}
	if _, err := Advect(vs, Vec3{}, 0, AdvectOptions{Dt: 0.1, Steps: 0}); err == nil {
		t.Error("expected error for zero steps")
	}
}

func TestStopAtBoundary(t *testing.T) {
	vs := uniformSeries(t, 8, 10, 5, 0, 0, []float64{0, 100})
	pl, err := Advect(vs, Vec3{9, 5, 5}, 0, AdvectOptions{Dt: 0.1, Steps: 100, StopAtBoundary: true})
	if err != nil {
		t.Fatal(err)
	}
	end := pl.End()
	if end.X > 10 {
		t.Errorf("particle escaped to x=%g with StopAtBoundary", end.X)
	}
	if len(pl.Points) != 101 {
		t.Errorf("stopped pathline has %d points, want 101 (padded)", len(pl.Points))
	}
}

func TestRake(t *testing.T) {
	seeds := Rake(Vec3{0, 0, 0}, Vec3{10, 0, 0}, 48)
	if len(seeds) != 48 {
		t.Fatalf("rake count = %d", len(seeds))
	}
	if seeds[0].X != 0 || seeds[47].X != 10 {
		t.Errorf("rake endpoints %g..%g", seeds[0].X, seeds[47].X)
	}
	gap := seeds[1].X - seeds[0].X
	for i := 1; i < len(seeds); i++ {
		if math.Abs(seeds[i].X-seeds[i-1].X-gap) > 1e-12 {
			t.Fatal("rake not evenly spaced")
		}
	}
	if got := Rake(Vec3{1, 2, 3}, Vec3{9, 9, 9}, 1); len(got) != 1 || got[0] != (Vec3{1, 2, 3}) {
		t.Error("single-seed rake should return the start point")
	}
	if Rake(Vec3{}, Vec3{}, 0) != nil {
		t.Error("zero-count rake should be nil")
	}
}

func TestDeviationErrorMetric(t *testing.T) {
	mk := func(positions ...float64) *Pathline {
		pl := &Pathline{Dt: 1}
		for _, x := range positions {
			pl.Points = append(pl.Points, Vec3{X: x})
		}
		return pl
	}
	base := mk(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // 10 seconds
	// Deviates beyond D=1 at t=6 (index 6): error = (1 - 6/10)*100 = 40%.
	test := mk(0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0)
	e, err := DeviationError(base, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-40) > 1e-12 {
		t.Errorf("deviation error = %g, want 40 (the paper's worked example)", e)
	}
	// Never deviates: 0%.
	if e, _ := DeviationError(base, base, 1); e != 0 {
		t.Errorf("self-deviation = %g", e)
	}
	// Deviates immediately: 100%.
	bad := mk(5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5)
	if e, _ := DeviationError(base, bad, 1); e != 100 {
		t.Errorf("immediate deviation = %g, want 100", e)
	}
	// Mismatched lengths rejected.
	if _, err := DeviationError(base, mk(0, 0), 1); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := DeviationError(base, test, -1); err == nil {
		t.Error("expected error for negative threshold")
	}
}

func TestMeanDeviationError(t *testing.T) {
	mk := func(positions ...float64) *Pathline {
		pl := &Pathline{Dt: 1}
		for _, x := range positions {
			pl.Points = append(pl.Points, Vec3{X: x})
		}
		return pl
	}
	base := []*Pathline{
		mk(0, 0, 0, 0, 0),
		mk(0, 0, 0, 0, 0),
	}
	tests := []*Pathline{
		mk(0, 0, 0, 0, 0), // 0%
		mk(9, 9, 9, 9, 9), // 100%
	}
	e, err := MeanDeviationError(base, tests, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e != 50 {
		t.Errorf("mean deviation = %g, want 50", e)
	}
	if _, err := MeanDeviationError(base, tests[:1], 1); err == nil {
		t.Error("expected count-mismatch error")
	}
	if e, err := MeanDeviationError(nil, nil, 1); err != nil || e != 0 {
		t.Errorf("empty mean = %g, %v", e, err)
	}
}

// A smaller threshold D must never produce a smaller error (monotonicity the
// paper's Table II exhibits: errors shrink from D=10 to D=500).
func TestDeviationMonotoneInThreshold(t *testing.T) {
	vs := rotationSeries(t, 17, 100, 0.3, []float64{0, 100})
	// Perturbed copy of the field to create a deviating pathline.
	vs2 := rotationSeries(t, 17, 100, 0.31, []float64{0, 100})
	opt := AdvectOptions{Dt: 0.05, Steps: 400}
	base, err := Advect(vs, Vec3{70, 50, 50}, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	test, err := Advect(vs2, Vec3{70, 50, 50}, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, d := range []float64{0.5, 1, 2, 5, 10} {
		e, err := DeviationError(base, test, d)
		if err != nil {
			t.Fatal(err)
		}
		if e > prev {
			t.Errorf("error %g at D=%g exceeds error %g at smaller D", e, d, prev)
		}
		prev = e
	}
}

func TestBackwardAdvectionInvertsForward(t *testing.T) {
	// In a steady flow, advecting forward then backward from the endpoint
	// returns to the seed (RK4 is time-reversible to high accuracy).
	vs := rotationSeries(t, 33, 100, 0.4, []float64{0, 1000})
	seed := Vec3{68, 50, 50}
	fwd := AdvectOptions{Dt: 0.05, Steps: 200}
	pl, err := Advect(vs, seed, 0, fwd)
	if err != nil {
		t.Fatal(err)
	}
	endTime := float64(fwd.Steps) * fwd.Dt
	back, err := Advect(vs, pl.End(), endTime, AdvectOptions{Dt: 0.05, Steps: 200, Backward: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := back.End().Dist(seed); d > 1e-4 {
		t.Errorf("backward advection returned %.3g away from the seed", d)
	}
}

func TestBackwardUniformFlow(t *testing.T) {
	vs := uniformSeries(t, 8, 100, 2, 0, 0, []float64{0, 100})
	pl, err := Advect(vs, Vec3{50, 50, 50}, 50, AdvectOptions{Dt: 0.5, Steps: 20, Backward: true})
	if err != nil {
		t.Fatal(err)
	}
	// 10 s backward through u=2 moves -20 in x.
	if math.Abs(pl.End().X-30) > 1e-9 {
		t.Errorf("backward end x = %g, want 30", pl.End().X)
	}
}
