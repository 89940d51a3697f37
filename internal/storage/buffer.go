package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/obs"
)

// BurstBuffer stages raw time slices on the fast tier, the way the paper's
// Figure 1 workflow parks a window of slices on the SSD before
// spatiotemporal compression. Slices are really written to and read from
// files under dir (exercising the true serialization path); timing is
// accounted through the PerfModel so experiments are deterministic and can
// model hardware other than the machine running them.
//
// BurstBuffer is safe for concurrent use: simulation ranks stage slices
// while the compressor drains them, so Put/Get/Drop may race. The mutex
// guards the id counter and the live map; the file I/O itself runs
// outside the lock (distinct ids touch distinct files).
type BurstBuffer struct {
	dir   string
	model *PerfModel
	dims  grid.Dims

	mu   sync.Mutex
	next int
	live map[int]string
}

// NewBurstBuffer creates a staging area in dir for slices of the given
// dims. dir must exist and belongs exclusively to this buffer: slice
// files left behind by a crashed prior run are garbage-collected here
// (staged slices are a cache of data the producer still owns — after a
// crash they are unaccounted disk that would let repeated crash/restart
// cycles fill the burst tier).
func NewBurstBuffer(dir string, model *PerfModel, dims grid.Dims) (*BurstBuffer, error) {
	if model == nil {
		return nil, fmt.Errorf("storage: nil perf model")
	}
	if !dims.Valid() {
		return nil, fmt.Errorf("storage: invalid dims %v", dims)
	}
	st, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: buffer dir: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("storage: %s is not a directory", dir)
	}
	orphans, err := filepath.Glob(filepath.Join(dir, "slice-*.raw"))
	if err != nil {
		return nil, fmt.Errorf("storage: scanning buffer dir: %w", err)
	}
	for _, p := range orphans {
		if err := os.Remove(p); err != nil {
			return nil, fmt.Errorf("storage: removing orphaned slice %s: %w", p, err)
		}
	}
	if len(orphans) > 0 {
		obs.Default().Counter("storage.buffer_orphans_removed_total").Add(int64(len(orphans)))
	}
	return &BurstBuffer{dir: dir, model: model, dims: dims, live: make(map[int]string)}, nil
}

// PutSliceOf writes a slice to the buffer tier and returns its id. The
// on-disk staging format is float32 at either precision (SaveRawFile), so
// both share the tier and the perf accounting.
func PutSliceOf[F num.Float](b *BurstBuffer, f *grid.Field3DOf[F]) (int, error) {
	if f.Dims != b.dims {
		return 0, fmt.Errorf("storage: slice dims %v != buffer dims %v", f.Dims, b.dims)
	}
	b.mu.Lock()
	id := b.next
	b.next++
	b.mu.Unlock()
	path := filepath.Join(b.dir, fmt.Sprintf("slice-%06d.raw", id))
	if err := f.SaveRawFile(path); err != nil {
		// A torn slice file must not stay behind: it is never registered
		// in live, so nothing would ever Drop it, and the next run's
		// orphan GC is a crash-recovery path, not a leak plan.
		os.Remove(path) //stlint:ignore uncheckederr best-effort cleanup of a partial file; the write error is what matters
		return 0, err
	}
	if _, err := b.model.RecordWrite(Buffer, f.RawSizeBytes(4)); err != nil {
		os.Remove(path) //stlint:ignore uncheckederr best-effort cleanup; the accounting error is what matters
		return 0, err
	}
	b.mu.Lock()
	b.live[id] = path
	b.mu.Unlock()
	return id, nil
}

// GetSliceOf reads a staged slice back at precision F; at float32 the
// samples land without a widen pass.
func GetSliceOf[F num.Float](b *BurstBuffer, id int) (*grid.Field3DOf[F], error) {
	b.mu.Lock()
	path, ok := b.live[id]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: no slice %d in buffer", id)
	}
	f, err := grid.LoadRawFileOf[F](path, b.dims.Nx, b.dims.Ny, b.dims.Nz)
	if err != nil {
		return nil, err
	}
	if _, err := b.model.RecordRead(Buffer, f.RawSizeBytes(4)); err != nil {
		return nil, err
	}
	return f, nil
}

// Drop removes a staged slice (after it has been compressed away).
func (b *BurstBuffer) Drop(id int) error {
	b.mu.Lock()
	path, ok := b.live[id]
	delete(b.live, id)
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: no slice %d in buffer", id)
	}
	return os.Remove(path)
}

// Len returns the number of staged slices.
func (b *BurstBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.live)
}

// Model returns the buffer's perf model.
func (b *BurstBuffer) Model() *PerfModel { return b.model }
