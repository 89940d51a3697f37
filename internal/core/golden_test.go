package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"stwave/internal/codec"
	"stwave/internal/entropy"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/sim/synth"
	"stwave/internal/transform"
)

// Golden bytes for one deterministic synth window: SHA-256 of every
// serialized window across {f32, f64} × {sparse, entropy,
// entropy-lossless} × {progressive on, off}, and of the thresholded
// coefficient slabs at workers 1 and 4. The hashes were recorded before the
// float32 twins of threshold/sparse/entropy were folded into generic
// bodies; a refactor of any coefficient stage must leave them unchanged.
// amd64 only: arm64, ppc64le and s390x fuse x*y+z into FMA, which moves
// the low bits of every lifting step (ROADMAP item 6(c)).
var goldenWindowHashes = map[string]string{
	"f64/sparse/progressive=false":           "c42c0c413d2e659316b1c367e8be81e08fc1e5b7d02737b8d72ad74f3d4eaad4",
	"f32/sparse/progressive=false":           "6a259d5121fb9a93df71ea79f69c8d361d480f99250c4e8c08db1e685be2ff18",
	"f64/sparse/progressive=true":            "1419851ee9da6f2bc61f803bac9fa25fbfa3ea2d19563d9b12bf5889656a74a2",
	"f32/sparse/progressive=true":            "7d5b0f332e219b1074ee334458b4d81f70689ef1a6a24c2f0061fa7bffd96055",
	"f64/entropy/progressive=false":          "be47282b80923fe5dbcd8f38bffc9cc1cc20a3ed6e644ff4336e9a6d532bd5fb",
	"f32/entropy/progressive=false":          "4ae20e094dda021ae3258746e004f7a14e02422e7d3ca0e554d1d35d488b9834",
	"f64/entropy/progressive=true":           "b9d215cdefdc3e36cfd2a6ca4d0c83db1454b124a5b4af0523e91da3949a6272",
	"f32/entropy/progressive=true":           "90b15203097a373bb3f30c8fb03343839bb0dce45912da294860483148bbe6f7",
	"f64/entropy-lossless/progressive=false": "9beda52dc05a70cbe5440aa2cd3599158f21815ce5962910718922ce4ec43d2f",
	"f32/entropy-lossless/progressive=false": "8eb8e53ff28e94f867bb2bcda9303c43c575ef6f19421f96e6749f9b049b3165",
	"f64/entropy-lossless/progressive=true":  "381e91d35a8508dcb4afbc287c3ef878eb71022ce4ee1d662913f5b851af6f60",
	"f32/entropy-lossless/progressive=true":  "ee81162a474ab5832fd8891108ca698308cd4f3868f68c8badc38a3cdf14213c",
}

var goldenSlabHashes = map[string]string{
	"f64": "8b468ab87a494fd40f75650574459502025407c7533d62932009d072e1d1c591",
	"f32": "3c9a559575daded5e8f6e30ce5ed4570127942c9b26a423080eb0002ed7fd0b6",
}

// goldenWindow samples the fixture: 6 slices of 40×36×24 (34560 samples, so
// every codec block spans two 32 Ki chunks and the joint threshold several).
func goldenWindow(t *testing.T) *grid.Window {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Modes = 16
	f, err := synth.NewField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f.ScalarWindow(40, 36, 24, 6, 0, 0.5)
}

func goldenOptions(cdc codec.Codec, progressive bool, p Precision) Options {
	o := DefaultOptions()
	o.WindowSize = 6
	o.Ratio = 16
	o.Workers = 2
	o.Codec = cdc
	o.Progressive = progressive
	o.Precision = p
	return o
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func compressGolden[F num.Float](t *testing.T, o Options, w *grid.WindowOf[F]) string {
	t.Helper()
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := CompressWindowOf(context.Background(), c, w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256Hex(buf.Bytes())
}

// thresholdGolden runs the forward transform and the joint threshold on a
// copy of w and hashes the coefficient slabs as little-endian samples.
func thresholdGolden[F num.Float](t *testing.T, o Options, w *grid.WindowOf[F], workers int) string {
	t.Helper()
	work := w.Clone()
	if err := transform.Forward4D(work, o.spec(work.Dims, work.Len())); err != nil {
		t.Fatal(err)
	}
	datas := make([][]F, work.Len())
	for i, s := range work.Slices {
		datas[i] = s.Data
	}
	if err := thresholdOf(o, datas, workers); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, d := range datas {
		if err := binary.Write(h, binary.LittleEndian, d); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenWindowBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	lossless, err := codec.EntropyWith(entropy.Params{Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	codecs := []struct {
		name string
		c    codec.Codec
	}{{"sparse", codec.Sparse()}, {"entropy", codec.Entropy()}, {"entropy-lossless", lossless}}
	w64 := goldenWindow(t)
	w32 := w64.Narrow()
	check := func(table map[string]string, key, got string) {
		t.Helper()
		if want := table[key]; got != want {
			t.Errorf("%s: sha256 %s, want %s", key, got, want)
		}
	}
	for _, cc := range codecs {
		for _, prog := range []bool{false, true} {
			key := fmt.Sprintf("%s/progressive=%v", cc.name, prog)
			check(goldenWindowHashes, "f64/"+key, compressGolden(t, goldenOptions(cc.c, prog, Float64), w64))
			check(goldenWindowHashes, "f32/"+key, compressGolden(t, goldenOptions(cc.c, prog, Float32), w32))
		}
	}
	for _, workers := range []int{1, 4} {
		o := goldenOptions(nil, false, Float64)
		check(goldenSlabHashes, "f64", thresholdGolden(t, o, w64, workers))
		o.Precision = Float32
		check(goldenSlabHashes, "f32", thresholdGolden(t, o, w32, workers))
	}
}
