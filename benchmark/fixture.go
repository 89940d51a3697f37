package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"time"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/sim/synth"
)

// ensembleSeed fixes the synth field's mode ensemble. --seed does not
// choose the ensemble: eight random modes differ so much from draw to draw
// that PSNR at a fixed ratio moved 65-81 dB and container size 4 % across
// seeds, which no regression bound survives. The seed chooses where on the
// field's timeline the replayed stretch starts instead — every mode gets
// its own phase from that, so the samples differ while the spectrum, and
// with it the difficulty, stays the same.
const ensembleSeed = 20170905

// fixture is the precomputed simulation output every workload replays:
// two windows' worth of synth slices at both precisions. Sampling the
// stand-in solver costs several times more than compressing its output,
// so the benchmark replays slices instead of timing the solver.
type fixture struct {
	dims   grid.Dims
	window int // slices per compression window
	dt     float64
	f64    []*grid.Field3D
	f32    []*grid.Field3D32
}

// newFixture samples 2*window slices of the synth field from the start
// time seed picks. The seed reaches the program only through these samples
// (and, for the serve workloads, the request sequence).
func newFixture(seed int64, dims grid.Dims, window int) (*fixture, error) {
	cfg := synth.DefaultConfig()
	cfg.Modes = 8
	cfg.Seed = ensembleSeed
	field, err := synth.NewField(cfg)
	if err != nil {
		return nil, err
	}
	// Mode periods are 15-60 time units, so start times spread over 1e4
	// units decorrelate every mode's phase.
	t0 := 1e4 * rand.New(rand.NewSource(seed)).Float64()
	fx := &fixture{dims: dims, window: window, dt: 0.25}
	for i := 0; i < 2*window; i++ {
		s := grid.NewField3D(dims.Nx, dims.Ny, dims.Nz)
		if err := field.SampleScalarInto(s, t0+float64(i)*fx.dt); err != nil {
			return nil, err
		}
		fx.f64 = append(fx.f64, s)
		fx.f32 = append(fx.f32, s.Narrow())
	}
	return fx, nil
}

// index maps a replay step to a fixture slice, ping-pong (0..n-1, n-1..0)
// so consecutive slices are always adjacent in simulation time and every
// window holds one of the two fixture windows, forwards or backwards.
func (fx *fixture) index(step int) int {
	n := len(fx.f64)
	i := step % (2 * n)
	if i >= n {
		i = 2*n - 1 - i
	}
	return i
}

// rawWindowBytes is the size of one uncompressed window at the precision.
func (fx *fixture) rawWindowBytes(f32 bool) int64 {
	b := int64(fx.dims.Len()) * int64(fx.window) * 8
	if f32 {
		b /= 2
	}
	return b
}

// sha256 hashes the float64 samples, so two runs can show they measured
// the same inputs.
func (fx *fixture) sha256() string {
	h := sha256.New()
	buf := make([]byte, 8*fx.dims.Len())
	for _, s := range fx.f64 {
		for i, v := range s.Data {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf) //stlint:ignore uncheckederr hash.Hash.Write never returns an error
	}
	return hex.EncodeToString(h.Sum(nil))
}

// slicesOf returns the fixture slices at precision F.
func slicesOf[F num.Float](fx *fixture) []*grid.Field3DOf[F] {
	if s, ok := any(fx.f32).([]*grid.Field3DOf[F]); ok {
		return s
	}
	return any(fx.f64).([]*grid.Field3DOf[F])
}

// replaySource feeds fixture slices to the ingest engine through the
// public ingest.SourceOf interface. It notes when each window's first
// slice was asked for: the start of that window's latency.
type replaySource[F num.Float] struct {
	fx     *fixture
	slices []*grid.Field3DOf[F]
	step   int
	starts []time.Time
}

func newReplaySource[F num.Float](fx *fixture) *replaySource[F] {
	return &replaySource[F]{fx: fx, slices: slicesOf[F](fx)}
}

func (s *replaySource[F]) Dims() grid.Dims { return s.fx.dims }

func (s *replaySource[F]) Next(dst *grid.Field3DOf[F]) (float64, error) {
	if s.step%s.fx.window == 0 {
		s.starts = append(s.starts, time.Now())
	}
	copy(dst.Data, s.slices[s.fx.index(s.step)].Data)
	t := float64(s.step) * s.fx.dt
	s.step++
	return t, nil
}

func (s *replaySource[F]) Skip() (float64, error) {
	t := float64(s.step) * s.fx.dt
	s.step++
	return t, nil
}
