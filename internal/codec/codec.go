// Package codec defines the pluggable boundary between the compression
// core and coefficient backends: a Codec turns thresholded coefficient
// slices into Blocks and moves Blocks to and from streams, identified on
// disk by a one-byte format ID recorded in every serialized window
// header. The core pipeline (internal/core) and the container store
// (internal/storage) speak only these interfaces, so a new backend — like
// the quantize → Huffman coder in internal/entropy, or a future neural
// coder — drops in without touching either layer.
//
// Three backends ship: "sparse" (bitmap + raw float32 values, the
// original format), "deflate" (the same blocks through a DEFLATE frame),
// and "entropy" (quantized, Huffman/exp-Golomb coded — roughly half the
// size of sparse at equal reported error). All three encode and decode
// chunk-parallel under the internal/par worker budget and produce
// bit-identical streams at every worker count.
package codec

import (
	"fmt"
	"io"
	"sort"

	"stwave/internal/compress"
	"stwave/internal/num"
)

// ID is the on-disk format identifier of a codec. It is recorded as the
// version byte of every serialized window header, so a reader can resolve
// the right backend before touching any payload bytes.
type ID byte

const (
	// IDSparse is the original format: significance bitmap + raw float32
	// values (serialized window format version 1).
	IDSparse ID = 1
	// IDDeflate is the sparse encoding wrapped in a DEFLATE frame
	// (serialized window format version 2).
	IDDeflate ID = 2
	// IDEntropy is the quantize → canonical-Huffman backend from
	// internal/entropy (serialized window format version 3).
	IDEntropy ID = 3
)

// String returns the codec's registered name, or a numeric form for
// unknown IDs.
func (id ID) String() string {
	if c, err := ByID(id); err == nil {
		return c.Name()
	}
	return fmt.Sprintf("codec(%d)", byte(id))
}

// Block is one encoded coefficient slice. Implementations are immutable
// after construction and safe for concurrent reads.
type Block interface {
	// Total returns the number of coefficients the block covers.
	Total() int
	// Retained returns the number of surviving (nonzero) coefficients.
	Retained() int
	// EncodedSizeBytes returns the exact serialized size of the block.
	EncodedSizeBytes() int64
	// DecodeInto expands the block into out (length must equal Total) on
	// up to workers goroutines, zeroing discarded positions. Output is
	// identical for every worker count.
	DecodeInto(out []float64, workers int) error
	// DecodeInto32 is DecodeInto at single precision: the float32 pipeline's
	// native decode path, with no widen-then-narrow round trip. For blocks
	// that store exact float32 values (sparse, entropy-lossless) the output
	// bits equal the encoded input bits. Interface methods cannot be
	// generic, so each precision needs its own name; implementations
	// forward both to one generic body.
	DecodeInto32(out []float32, workers int) error
}

// IdealSizer is implemented by blocks that can report the paper's
// idealized accounting (4 bytes per retained coefficient, no
// significance-map overhead).
type IdealSizer interface {
	IdealSizeBytes() int64
}

// DeflatedSizer is implemented by blocks that can report their size after
// a DEFLATE entropy stage without keeping the bytes.
type DeflatedSizer interface {
	DeflatedSizeBytes() (int64, error)
}

// Codec encodes thresholded coefficient slices into Blocks and moves
// Blocks to and from byte streams. Implementations are stateless and safe
// for concurrent use.
type Codec interface {
	// ID returns the codec's on-disk format identifier.
	ID() ID
	// Name returns the codec's stable CLI-facing name ("sparse",
	// "entropy", ...).
	Name() string
	// EncodeSurvivors encodes one Block per survivor list (the sparse
	// hand-off from compress.SelectSurvivors; see compress.CheckSurvivors
	// for the contract) on up to workers goroutines, touching only the
	// survivors. Output is bit-identical for every worker count. It is the
	// one encode body of every backend.
	EncodeSurvivors(survs []compress.Survivors, workers int) ([]Block, error)
	// EncodeSlices encodes one Block per dense coefficient slice: the
	// nonzeros are collected and handed to EncodeSurvivors, so zero-valued
	// coefficients are treated as discarded.
	EncodeSlices(datas [][]float64, workers int) ([]Block, error)
	// EncodeSlices32 is EncodeSlices at single precision. The serialized
	// bytes are identical to encoding the exactly-widened float64 copies —
	// the on-disk formats never stored more than float32 values — so a
	// reader cannot tell which precision produced a stream. Like
	// DecodeInto32 it is a separate name only because interface methods
	// cannot be generic.
	EncodeSlices32(datas [][]float32, workers int) ([]Block, error)
	// WriteBlock serializes one of this codec's blocks. It fails on
	// blocks produced by a different codec.
	WriteBlock(w io.Writer, b Block) (int64, error)
	// ReadBlock deserializes one block, consuming exactly the block's
	// bytes from r — safe to call repeatedly on one stream. Corrupt or
	// forged input returns an error, never panics.
	ReadBlock(r io.Reader) (Block, error)
}

// encodeDense is the body of every EncodeSlices/EncodeSlices32: collect
// the nonzeros, then encode them through the codec's survivor path.
func encodeDense[F num.Float](c Codec, datas [][]F, workers int) ([]Block, error) {
	return c.EncodeSurvivors(compress.Nonzeros(datas, workers), workers)
}

// The static registry. Codecs are compiled in, not plugged at runtime, so
// plain maps without locking are enough; they are populated at init and
// read-only afterwards.
var (
	byID   = map[ID]Codec{}
	byName = map[string]Codec{}
)

func register(c Codec) {
	if _, dup := byID[c.ID()]; dup {
		panic(fmt.Sprintf("codec: duplicate ID %d", byte(c.ID())))
	}
	if _, dup := byName[c.Name()]; dup {
		panic(fmt.Sprintf("codec: duplicate name %q", c.Name()))
	}
	byID[c.ID()] = c
	byName[c.Name()] = c
}

func init() {
	register(Sparse())
	register(Deflate())
	register(Entropy())
}

// ByID resolves a codec from its on-disk format identifier.
func ByID(id ID) (Codec, error) {
	c, ok := byID[id]
	if !ok {
		return nil, fmt.Errorf("codec: unknown format ID %d", byte(id))
	}
	return c, nil
}

// ByName resolves a codec from its CLI-facing name.
func ByName(name string) (Codec, error) {
	c, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec %q (have %v)", name, Names())
	}
	return c, nil
}

// Default returns the default backend (sparse — the original format).
func Default() Codec { return byID[IDSparse] }

// Names returns the registered codec names, sorted.
func Names() []string {
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
