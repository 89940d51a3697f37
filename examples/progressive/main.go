// Progressive: two access patterns beyond the paper's core pipeline —
// quality-progressive decoding of a level-major (v4) window, where each
// byte prefix reconstructs the whole window at a coarser detail level,
// and multiresolution spatial previews (decode a 1/8^L-size
// approximation), plus fast single-slice random access from a 4D window.
//
//	go run ./examples/progressive
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"stwave/internal/core"
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
	orig := field.ScalarWindow(32, 32, 32, 18, 0, 1.0)
	ctx := context.Background()

	// --- Progressive quality: compress level-major, then read back byte
	// prefixes. The prefix holding level groups 0..K decodes on its own;
	// the finer groups it lacks reconstruct as zero detail.
	opts := core.DefaultOptions()
	opts.WindowSize = 18
	opts.Ratio = 32
	opts.Progressive = true
	comp, err := core.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	cw, err := core.Compress(ctx, comp, orig, core.Copy)
	if err != nil {
		log.Fatal(err)
	}
	var stored bytes.Buffer
	if _, err := cw.WriteTo(&stored); err != nil {
		log.Fatal(err)
	}
	_, table, payload, err := core.ReadWindowLevelTable(bytes.NewReader(stored.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("progressive window: %d bytes for %d raw bytes, %d level groups\n",
		stored.Len(), orig.TotalSamples()*8, len(table.Extents))
	fmt.Printf("%-7s %13s %12s\n", "levels", "prefix bytes", "NRMSE")
	for k := range table.Extents {
		prefix := stored.Bytes()[:payload+table.PrefixBytes(k)]
		part, err := core.ReadCompressedWindowLevels(bytes.NewReader(prefix), k)
		if err != nil {
			log.Fatal(err)
		}
		recon, err := core.Reconstruct[float64](ctx, part, core.Query{MaxLevel: core.All, Slice: core.All})
		if err != nil {
			log.Fatal(err)
		}
		ac := metrics.NewAccumulator()
		for i := range orig.Slices {
			if err := ac.Add(orig.Slices[i].Data, recon.Slices[i].Data); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("0..%-4d %13d %12.4e\n", k, len(prefix), ac.NRMSE())
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

	// --- Random access: decode one slice of the compressed 4D window
	// without paying the other slices' spatial inverse.
	slice9, err := core.Reconstruct[float64](ctx, cw, core.Query{MaxLevel: core.All, Slice: 9})
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
