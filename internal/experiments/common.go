// Package experiments reproduces every figure and table of the paper's
// evaluation (Sections V and VI): the kernel/window study (Fig. 2a/2b), the
// temporal-resolution study (Fig. 2c), the multi-dataset study (Fig. 3),
// the performance table (Table I), the pathline analysis (Table II), and
// the isosurface analysis (Table III).
//
// Each experiment is a pure function from a Scale (grid sizes, slice
// counts, worker budget) to a typed result, plus a text renderer that
// prints rows shaped like the paper's. Absolute error values differ from
// the paper's — the substrates are our own simulators at laptop-scale
// grids — but the comparative structure (who wins, by what factor, where
// the benefit decays) is the reproduction target.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/wavelet"
)

// Scale bundles the experiment sizing knobs so the full suite can run at
// test scale (seconds) or at a heavier benchmark scale.
type Scale struct {
	// GhostN is the Ghost solver resolution (power of two).
	GhostN int
	// GhostSlices is the number of base-cadence Ghost slices generated.
	GhostSlices int
	// GhostOutputEvery is the solver-steps-per-slice at base cadence
	// (the paper's "every 100th simulation cycle" knob).
	GhostOutputEvery int
	// CloverN is the CloverLeaf cell count per axis.
	CloverN int
	// CloverSlices is the number of CloverLeaf slices generated.
	CloverSlices int
	// CloverOutputEvery is solver steps per slice.
	CloverOutputEvery int
	// TornadoNx/Ny/Nz are the tornado grid extents.
	TornadoNx, TornadoNy, TornadoNz int
	// TornadoSlices is the slice count at base cadence (1 s).
	TornadoSlices int
	// Workers bounds transform parallelism.
	Workers int
	// PathlineDt is the RK4 step for Table II (the paper uses 0.01 s).
	PathlineDt float64
	// PathlineSeedsPerRake is the particles per rake (paper: 48).
	PathlineSeedsPerRake int
}

// TestScale returns a configuration sized to finish the whole suite in
// seconds, for use in go test.
func TestScale() Scale {
	return Scale{
		GhostN: 16, GhostSlices: 40, GhostOutputEvery: 2,
		CloverN: 12, CloverSlices: 40, CloverOutputEvery: 2,
		TornadoNx: 20, TornadoNy: 20, TornadoNz: 14, TornadoSlices: 40,
		Workers:    0,
		PathlineDt: 0.2, PathlineSeedsPerRake: 8,
	}
}

// DefaultScale returns the configuration the stbench binary uses: large
// enough for stable statistics, small enough for a laptop.
func DefaultScale() Scale {
	return Scale{
		GhostN: 32, GhostSlices: 80, GhostOutputEvery: 2,
		CloverN: 24, CloverSlices: 80, CloverOutputEvery: 3,
		TornadoNx: 36, TornadoNy: 36, TornadoNz: 24, TornadoSlices: 80,
		Workers:    0,
		PathlineDt: 0.05, PathlineSeedsPerRake: 16,
	}
}

// Ratios are the paper's compression ratios (Section V-A4).
var Ratios = []float64{8, 16, 32, 64, 128}

// Resolutions are the paper's temporal resolutions as subsample strides:
// res=1 is stride 1, res=1/2 stride 2, res=1/4 stride 4.
var Resolutions = []int{1, 2, 4}

// ResLabel renders a stride as the paper's resolution notation.
func ResLabel(stride int) string {
	if stride == 1 {
		return "1"
	}
	return fmt.Sprintf("1/%d", stride)
}

// EvalWindowed compresses a slice sequence in windows and accumulates
// NRMSE / normalized L-inf against the originals over the whole sequence.
func EvalWindowed(seq *grid.Window, opts core.Options) (nrmse, nlinf float64, err error) {
	recon, _, err := roundTripSeq(seq, opts)
	if err != nil {
		return 0, 0, err
	}
	ac := metrics.NewAccumulator()
	for i := range seq.Slices {
		if err := ac.Add(seq.Slices[i].Data, recon.Slices[i].Data); err != nil {
			return 0, 0, err
		}
	}
	return ac.NRMSE(), ac.NLInf(), nil
}

// roundTripSeq compresses a sequence in windows of opts.SlicesPerWindow
// slices and returns the reconstruction plus the ideal stored bytes.
func roundTripSeq(seq *grid.Window, opts core.Options) (*grid.Window, int64, error) {
	comp, err := core.New(opts)
	if err != nil {
		return nil, 0, err
	}
	chunks, err := seq.Partition(opts.SlicesPerWindow())
	if err != nil {
		return nil, 0, err
	}
	out := grid.NewWindow(seq.Dims)
	var bytes int64
	for _, ch := range chunks {
		recon, cw, err := comp.RoundTrip(ch)
		if err != nil {
			return nil, 0, err
		}
		bytes += cw.IdealSizeBytes()
		for i := range recon.Slices {
			if err := out.Append(recon.Slices[i], recon.Times[i]); err != nil {
				return nil, 0, err
			}
		}
	}
	return out, bytes, nil
}

// BaseOptions4D returns the paper's sweet-spot 4D configuration at a given
// ratio and window size.
func BaseOptions4D(ratio float64, windowSize int, workers int) core.Options {
	o := core.DefaultOptions()
	o.Ratio = ratio
	o.WindowSize = windowSize
	o.Workers = workers
	return o
}

// BaseOptions3D returns the paper's 3D baseline (CDF 9/7 spatial only).
func BaseOptions3D(ratio float64, workers int) core.Options {
	return core.Options{
		Mode:          core.Spatial3D,
		SpatialKernel: wavelet.CDF97,
		Ratio:         ratio,
		SpatialLevels: -1,
		Workers:       workers,
	}
}

// memoize caches expensive dataset generation keyed by a label, so multiple
// experiments sharing a scale reuse the same slices.
type memoCache struct {
	mu sync.Mutex
	m  map[string]*grid.Window
}

var datasets = memoCache{m: make(map[string]*grid.Window)}

func (c *memoCache) get(key string, gen func() (*grid.Window, error)) (*grid.Window, error) {
	c.mu.Lock()
	if w, ok := c.m[key]; ok {
		c.mu.Unlock()
		return w, nil
	}
	c.mu.Unlock()
	w, err := gen()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.m[key] = w
	c.mu.Unlock()
	return w, nil
}

// fprintf writes formatted output, ignoring nil writers.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
