package core

import (
	"context"
	"fmt"

	"stwave/internal/grid"
	"stwave/internal/num"
)

// Sink receives compressed windows as the stream writer flushes them —
// typically a storage tier, a file, or a test collector.
type Sink func(*CompressedWindow) error

// WriterOf accumulates time slices of precision F as a simulation emits
// them and compresses a window whenever WindowSize slices have been
// buffered — the Figure 1 workflow. In 3D mode every slice is compressed
// individually the moment it arrives. A float32 writer stays at 4 bytes
// per sample from the caller's slice to the encoded bytes.
//
// The writer owns its pending window: each slice is copied once, in
// WriteSlice, and the window is compressed InPlace. Under MaxErr it is
// compressed Copy, because the bound is verified against the raw samples.
//
// WriterOf is not safe for concurrent use; simulations emit slices in
// order.
type WriterOf[F num.Float] struct {
	comp    *Compressor
	sink    Sink
	dims    grid.Dims
	in      Input
	target  int // slices per window: WindowSize, or 1 in 3D mode
	pending *grid.WindowOf[F]
	ctx     context.Context

	// Stats accumulated across the stream.
	slicesIn       int
	windowsOut     int
	bytesEncoded   int64
	bytesIdeal     int64
	peakBufferSize int64
}

// NewWriterOf creates a streaming writer feeding compressed windows to
// sink. Options with MaxErr set are rejected at F = float32 (the
// error-bounded mode runs on the float64 oracle).
func NewWriterOf[F num.Float](opts Options, dims grid.Dims, sink Sink) (*WriterOf[F], error) {
	if num.Is32[F]() && opts.MaxErr > 0 {
		return nil, fmt.Errorf("core: error-bounded mode (MaxErr) requires the float64 pipeline")
	}
	comp, err := New(opts)
	if err != nil {
		return nil, err
	}
	if !dims.Valid() {
		return nil, fmt.Errorf("core: invalid dims %v", dims)
	}
	if sink == nil {
		return nil, fmt.Errorf("core: nil sink")
	}
	w := &WriterOf[F]{comp: comp, sink: sink, dims: dims, in: InPlace, target: opts.WindowSize, ctx: context.Background()}
	if opts.MaxErr > 0 {
		w.in = Copy
	}
	if opts.Mode == Spatial3D {
		w.target = 1
	}
	return w, nil
}

// SetContext installs the context used when compressing flushed windows.
// Pass a context carrying an obs trace root to record per-window spans
// across the whole stream (the stcomp -trace path). Call before the first
// WriteSlice; a nil ctx resets to context.Background().
func (w *WriterOf[F]) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background() //stlint:ignore ctxflow nil resets to a fresh root by documented contract
	}
	w.ctx = ctx
}

// WriteSlice appends a copy of one time slice at simulation time t, so
// the caller may reuse its buffer after the call returns. When a window
// fills, it is compressed and flushed to the sink before WriteSlice
// returns.
func (w *WriterOf[F]) WriteSlice(f *grid.Field3DOf[F], t float64) error {
	if f.Dims != w.dims {
		return fmt.Errorf("core: slice dims %v != writer dims %v", f.Dims, w.dims)
	}
	w.slicesIn++
	if w.pending == nil {
		w.pending = grid.NewWindowOf[F](w.dims)
	}
	if err := w.pending.Append(f.Clone(), t); err != nil {
		return err
	}
	if sz := int64(w.pending.TotalSamples()) * int64(num.SampleBytes[F]()); sz > w.peakBufferSize {
		w.peakBufferSize = sz
	}
	if w.pending.Len() >= w.target {
		return w.Flush()
	}
	return nil
}

// Flush compresses any partially-filled window. Call once at end of stream.
func (w *WriterOf[F]) Flush() error {
	if w.pending == nil || w.pending.Len() == 0 {
		return nil
	}
	win := w.pending
	w.pending = nil
	cw, err := Compress(w.ctx, w.comp, win, w.in)
	if err != nil {
		return err
	}
	w.windowsOut++
	w.bytesEncoded += cw.EncodedSizeBytes()
	w.bytesIdeal += cw.IdealSizeBytes()
	return w.sink(cw)
}

// Stats reports stream totals.
type Stats struct {
	SlicesIn       int
	WindowsOut     int
	PendingSlices  int
	BytesEncoded   int64
	BytesIdeal     int64
	PeakBufferSize int64
}

// Stats returns a snapshot of the writer's counters.
func (w *WriterOf[F]) Stats() Stats {
	pending := 0
	if w.pending != nil {
		pending = w.pending.Len()
	}
	return Stats{
		SlicesIn:       w.slicesIn,
		WindowsOut:     w.windowsOut,
		PendingSlices:  pending,
		BytesEncoded:   w.bytesEncoded,
		BytesIdeal:     w.bytesIdeal,
		PeakBufferSize: w.peakBufferSize,
	}
}
