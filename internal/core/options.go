// Package core implements the paper's primary contribution: windowed
// spatiotemporal (4D) wavelet compression of time-varying scalar fields,
// alongside the conventional per-slice spatial (3D) baseline it is compared
// against.
//
// The pipeline follows Section IV-A / Figure 1 of the paper:
//
//  1. time slices are accumulated into a window of fixed size T
//  2. each slice undergoes a 3D non-standard wavelet decomposition
//  3. (4D mode only) a 1D wavelet transform is applied along time at every
//     grid point of the window
//  4. coefficients are thresholded to the target n:1 ratio — per slice in
//     3D mode, over the whole window in 4D mode — and sparsely encoded
//
// Decompression reverses the steps; note that 4D mode cannot reconstruct a
// single slice without decoding its whole window (the random-access cost
// the paper discusses in Section V-E).
package core

import (
	"fmt"
	"math"

	"stwave/internal/codec"
	"stwave/internal/grid"
	"stwave/internal/transform"
	"stwave/internal/wavelet"
)

// Mode selects spatial-only or spatiotemporal compression.
type Mode int

const (
	// Spatial3D compresses each time slice independently (the baseline).
	Spatial3D Mode = iota
	// Spatiotemporal4D adds the temporal transform and thresholds the
	// whole window jointly (the paper's contribution).
	Spatiotemporal4D
)

// String returns "3D" or "4D", the labels the paper's tables use.
func (m Mode) String() string {
	switch m {
	case Spatial3D:
		return "3D"
	case Spatiotemporal4D:
		return "4D"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Precision selects the sample precision the pipeline runs at end to end:
// transform, threshold, encode, and decode all move samples of this width.
// Float64 is the reference oracle; Float32 halves the bytes on every
// memory-bound stage at the cost of float32 rounding in the transform.
type Precision int

const (
	// Float64 is the double-precision reference pipeline (the default).
	Float64 Precision = iota
	// Float32 is the single-precision fast path. Coefficient formats are
	// unchanged (they always stored float32 values), so only the window
	// header records which pipeline produced a stream.
	Float32
)

// String returns the CLI-facing name ("f64" / "f32").
func (p Precision) String() string {
	switch p {
	case Float64:
		return "f64"
	case Float32:
		return "f32"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// Valid reports whether p names a supported precision.
func (p Precision) Valid() bool { return p == Float64 || p == Float32 }

// SampleBytes returns the width of one sample at this precision.
func (p Precision) SampleBytes() int {
	if p == Float32 {
		return 4
	}
	return 8
}

// ParsePrecision resolves a CLI name ("f64", "f32"; "float64"/"float32"
// accepted as aliases). The empty string means Float64.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64", "float64":
		return Float64, nil
	case "f32", "float32":
		return Float32, nil
	}
	return 0, fmt.Errorf("core: unknown precision %q (want f64 or f32)", s)
}

// Options configures a Compressor.
type Options struct {
	// Mode selects 3D (per-slice) or 4D (windowed spatiotemporal)
	// compression.
	Mode Mode
	// SpatialKernel is the wavelet used by the per-slice 3D step. The
	// paper uses CDF 9/7 throughout.
	SpatialKernel wavelet.Kernel
	// TemporalKernel is the wavelet used along the time axis in 4D mode.
	TemporalKernel wavelet.Kernel
	// WindowSize is the number of time slices per compression window in 4D
	// mode (the paper studies 10, 20, 40 and uses 18 in Section VI).
	// Ignored in 3D mode.
	WindowSize int
	// Ratio is the target compression ratio n in n:1 (8 means keep 1/8 of
	// the coefficients). Must be >= 1.
	Ratio float64
	// SpatialLevels bounds the 3D transform depth; -1 means the Equation 2
	// maximum for the grid.
	SpatialLevels int
	// TemporalLevels bounds the temporal transform depth; -1 means the
	// Equation 2 maximum for the window size.
	TemporalLevels int
	// Workers bounds parallelism; <= 0 uses all CPUs.
	Workers int
	// PerSliceBudget, when true in 4D mode, thresholds each slice's
	// coefficients separately instead of ranking the whole window jointly.
	// This is an ablation knob: the paper's 4D method uses a joint budget.
	PerSliceBudget bool
	// Codec selects the coefficient backend that encodes thresholded
	// coefficients and serializes them (recorded per window, so readers
	// resolve it from the stream). Nil means codec.Default() (sparse).
	Codec codec.Codec
	// Progressive stores windows in the level-major (v4) layout: the
	// approximation cube and each detail shell become independently
	// addressable byte ranges, so readers can fetch and decode a coarse
	// reconstruction from a byte prefix (see Query.MaxLevel). Costs a
	// level-offset table plus one codec block header per (level, slice)
	// pair; legacy readers reject progressive windows typed rather than
	// misparsing them.
	Progressive bool
	// Precision selects the pipeline's sample width (Float64 unless set).
	// It declares which sample type a configuration is meant for —
	// Compress[float64] at Float64, Compress[float32] at Float32 — and is
	// what the CLIs switch on. The error-bounded mode
	// (MaxErr) is defined on the float64 oracle only.
	Precision Precision
	// MaxErr, when > 0, replaces the Ratio budget with an error-bounded
	// mode: coefficients are thresholded adaptively per band and the
	// bound is verified on the exact encoded stream (inverse transform
	// of the codec roundtrip), tightening until the maximum absolute
	// reconstruction error is <= MaxErr everywhere. Ratio is ignored.
	MaxErr float64
	// ROI optionally designates a region of interest that must meet a
	// tighter error bound than the MaxErr background. Requires MaxErr
	// mode.
	ROI *ROIBounds
}

// ROIBounds is a half-open box [X0,X1)x[Y0,Y1)x[Z0,Z1) in grid
// coordinates with its own error bound — the feature-preservation knob
// of the error-bounded mode: background coefficients are thresholded
// against Options.MaxErr, coefficients whose spatial support touches the
// box against the tighter MaxErr here.
type ROIBounds struct {
	X0, Y0, Z0 int
	X1, Y1, Z1 int
	MaxErr     float64
}

// Valid reports whether the box is non-empty with non-negative origin.
func (r ROIBounds) Valid() bool {
	return r.X0 >= 0 && r.Y0 >= 0 && r.Z0 >= 0 &&
		r.X1 > r.X0 && r.Y1 > r.Y0 && r.Z1 > r.Z0
}

// Contains reports whether grid point (x, y, z) lies in the box.
func (r ROIBounds) Contains(x, y, z int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1 && z >= r.Z0 && z < r.Z1
}

// DefaultOptions returns the paper's "sweet spot" configuration from
// Section V-B1: 4D compression, CDF 9/7 both spatially and temporally,
// window size 20, ratio 32:1.
func DefaultOptions() Options {
	return Options{
		Mode:           Spatiotemporal4D,
		SpatialKernel:  wavelet.CDF97,
		TemporalKernel: wavelet.CDF97,
		WindowSize:     20,
		Ratio:          32,
		SpatialLevels:  -1,
		TemporalLevels: -1,
	}
}

// Validate reports the first configuration problem found.
func (o Options) Validate() error {
	if o.Mode != Spatial3D && o.Mode != Spatiotemporal4D {
		return fmt.Errorf("core: invalid mode %d", int(o.Mode))
	}
	if !o.SpatialKernel.Valid() {
		return fmt.Errorf("core: invalid spatial kernel %d", int(o.SpatialKernel))
	}
	if o.Mode == Spatiotemporal4D {
		if !o.TemporalKernel.Valid() {
			return fmt.Errorf("core: invalid temporal kernel %d", int(o.TemporalKernel))
		}
		if o.WindowSize < 2 {
			return fmt.Errorf("core: 4D mode requires window size >= 2, got %d", o.WindowSize)
		}
	}
	if math.IsNaN(o.Ratio) || math.IsInf(o.Ratio, 0) || o.Ratio < 1 {
		return fmt.Errorf("core: ratio must be finite and >= 1, got %g", o.Ratio)
	}
	if o.SpatialLevels < -1 {
		return fmt.Errorf("core: invalid spatial levels %d", o.SpatialLevels)
	}
	if o.TemporalLevels < -1 {
		return fmt.Errorf("core: invalid temporal levels %d", o.TemporalLevels)
	}
	if o.MaxErr < 0 {
		return fmt.Errorf("core: negative max error bound %g", o.MaxErr)
	}
	if !o.Precision.Valid() {
		return fmt.Errorf("core: invalid precision %d", int(o.Precision))
	}
	if o.Precision == Float32 && o.MaxErr > 0 {
		return fmt.Errorf("core: error-bounded mode (MaxErr) requires the float64 pipeline; drop MaxErr or use f64 precision")
	}
	if o.ROI != nil {
		if o.MaxErr <= 0 {
			return fmt.Errorf("core: ROI bounds require error-bounded mode (MaxErr > 0)")
		}
		if !o.ROI.Valid() {
			return fmt.Errorf("core: invalid ROI box [%d,%d)x[%d,%d)x[%d,%d)",
				o.ROI.X0, o.ROI.X1, o.ROI.Y0, o.ROI.Y1, o.ROI.Z0, o.ROI.Z1)
		}
		if o.ROI.MaxErr <= 0 || o.ROI.MaxErr > o.MaxErr {
			return fmt.Errorf("core: ROI max error %g must be in (0, %g] (no looser than background)",
				o.ROI.MaxErr, o.MaxErr)
		}
	}
	return nil
}

// codec resolves the configured coefficient backend, defaulting to sparse.
func (o Options) codec() codec.Codec {
	if o.Codec != nil {
		return o.Codec
	}
	return codec.Default()
}

// spec builds the transform configuration for a concrete window length.
// Temporal levels are bounded by the actual window length so short final
// windows still transform correctly.
func (o Options) spec(d grid.Dims, windowLen int) transform.Spec {
	s := transform.Spec{
		SpatialKernel:  o.SpatialKernel,
		SpatialLevels:  o.SpatialLevels,
		TemporalKernel: o.TemporalKernel,
		TemporalLevels: 0,
		Workers:        o.Workers,
	}
	if s.SpatialLevels < 0 {
		s.SpatialLevels = transform.Levels3D(o.SpatialKernel, d)
	}
	if o.Mode == Spatiotemporal4D {
		max := transform.LevelsTemporal(o.TemporalKernel, windowLen)
		if o.TemporalLevels < 0 || o.TemporalLevels > max {
			s.TemporalLevels = max
		} else {
			s.TemporalLevels = o.TemporalLevels
		}
	}
	return s
}
