// Progressive: two access patterns beyond the paper's core pipeline —
// quality-progressive decoding with the embedded bitplane coder (decode any
// prefix of the stream) and multiresolution spatial previews (decode a
// 1/8^L-size approximation), plus fast single-slice random access from a 4D
// window.
//
//	go run ./examples/progressive
package main

import (
	"context"
	"fmt"
	"log"

	"stwave/internal/coder"
	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/sim/synth"
	"stwave/internal/transform"
	"stwave/internal/wavelet"
)

func main() {
	field, err := synth.NewField(synth.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	window := field.ScalarWindow(32, 32, 32, 18, 0, 1.0)
	orig := window.Clone()

	// --- Progressive quality: transform, then embedded-encode all
	// coefficients. Any prefix of the stream decodes to a valid field.
	spec := transform.Spec{
		SpatialKernel:  wavelet.CDF97,
		SpatialLevels:  -1,
		TemporalKernel: wavelet.CDF97,
		TemporalLevels: -1,
	}
	if err := transform.Forward4D(window, spec); err != nil {
		log.Fatal(err)
	}
	coeffs := make([]float64, 0, window.TotalSamples())
	for _, s := range window.Slices {
		coeffs = append(coeffs, s.Data...)
	}
	stream, err := coder.Encode(coeffs, 20)
	if err != nil {
		log.Fatal(err)
	}
	rawBytes := window.TotalSamples() * 8
	fmt.Printf("embedded stream: %d bytes for %d raw bytes\n", len(stream), rawBytes)
	fmt.Printf("%-14s %12s\n", "prefix", "NRMSE")
	for _, frac := range []int{5, 10, 25, 50, 100} {
		cut := len(stream) * frac / 100
		if cut < 16 {
			cut = 16
		}
		dec, err := coder.Decode(stream[:cut])
		if err != nil {
			log.Fatal(err)
		}
		recon := grid.NewWindow(window.Dims)
		off := 0
		for i := range window.Slices {
			g := grid.NewField3D(window.Dims.Nx, window.Dims.Ny, window.Dims.Nz)
			copy(g.Data, dec[off:off+len(g.Data)])
			off += len(g.Data)
			if err := recon.Append(g, float64(i)); err != nil {
				log.Fatal(err)
			}
		}
		if err := transform.Inverse4D(recon, spec); err != nil {
			log.Fatal(err)
		}
		ac := metrics.NewAccumulator()
		for i := range orig.Slices {
			if err := ac.Add(orig.Slices[i].Data, recon.Slices[i].Data); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%3d%% (%6d B) %12.4e\n", frac, cut, ac.NRMSE())
	}

	// --- Multiresolution preview: extract coarse approximations of one
	// slice without full-resolution reconstruction cost.
	fmt.Printf("\nmultiresolution previews of slice 0 (%v):\n", orig.Dims)
	for levels := 0; levels <= 2; levels++ {
		c, err := transform.CoarseApproximation(orig.Slices[0], wavelet.CDF97, levels, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  level %d: %v (%d samples, 1/%d of full)\n",
			levels, c.Dims, c.Dims.Len(), orig.Dims.Len()/c.Dims.Len())
	}

	// --- Random access: decode one slice from a compressed 4D window
	// without paying the other slices' spatial inverse.
	opts := core.DefaultOptions()
	opts.WindowSize = 18
	opts.Ratio = 32
	comp, err := core.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	cw, err := comp.CompressWindow(orig)
	if err != nil {
		log.Fatal(err)
	}
	slice9, err := core.Reconstruct[float64](context.Background(), cw, core.Query{MaxLevel: core.All, Slice: 9})
	if err != nil {
		log.Fatal(err)
	}
	nr, err := metrics.NRMSE(orig.Slices[9].Data, slice9.Slices[0].Data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrandom access: slice 9 of 18 decoded alone, NRMSE %.4e\n", nr)
	fmt.Println("(inverse temporal over the window + one spatial inverse — the other 17 are skipped)")
}
