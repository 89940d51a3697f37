package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stwave/internal/grid"
	"stwave/internal/num"
)

// leakCheck snapshots the goroutine count and fails the test if, after a
// grace period for exiting goroutines to unwind, the count stays above the
// baseline — the regression guard for Pipeline's drain-on-error contract.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			runtime.GC()
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestPipelineSinkErrorDrains pins the hardened shutdown contract: after
// the sink fails, (a) the sink is never invoked again, (b) Submit keeps
// succeeding or fails fast but never deadlocks even with the job queue
// saturated, and (c) Close drains every worker without leaking goroutines.
func TestPipelineSinkErrorDrains(t *testing.T) {
	defer leakCheck(t)()
	var sinkCalls atomic.Int64
	boom := fmt.Errorf("sink exploded")
	p, err := NewPipeline(2, func(id int, cw *CompressedWindow) error {
		sinkCalls.Add(1)
		return boom
	})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the queue well past its depth; Submit must never block
	// forever even though the sink died on delivery 0.
	for i := 0; i < 64; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.Submit(func() (*CompressedWindow, error) { //stlint:ignore uncheckederr sticky error checked via Close below
				return &CompressedWindow{}, nil
			})
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Submit deadlocked on a full queue after sink error")
		}
	}
	if err := p.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want sink error", err)
	}
	if got := sinkCalls.Load(); got != 1 {
		t.Fatalf("sink called %d times after first error, want exactly 1", got)
	}
	// Close is idempotent and keeps reporting the sticky error.
	if err := p.Close(); !errors.Is(err, boom) {
		t.Fatalf("second Close = %v, want sink error", err)
	}
}

// TestPipelineJobErrorDrains: same contract when a worker job (not the
// sink) fails — later jobs are skipped, earlier completed jobs that sort
// after the failure never reach the sink.
func TestPipelineJobErrorDrains(t *testing.T) {
	defer leakCheck(t)()
	boom := fmt.Errorf("job exploded")
	var delivered atomic.Int64
	p, err := NewPipeline(3, func(id int, cw *CompressedWindow) error {
		delivered.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		i := i
		_, serr := p.Submit(func() (*CompressedWindow, error) {
			if i == 0 {
				return nil, boom
			}
			return &CompressedWindow{}, nil
		})
		if serr != nil {
			break // fail-fast after the sticky error is legal
		}
	}
	if err := p.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want job error", err)
	}
	if got := delivered.Load(); got != 0 {
		t.Fatalf("sink received %d windows past a hole at id 0, want 0", got)
	}
}

// TestPipelineOrdered: out-of-order completion must still deliver in
// submission order.
func TestPipelineOrdered(t *testing.T) {
	defer leakCheck(t)()
	var got []int
	p, err := NewPipeline(4, func(id int, cw *CompressedWindow) error {
		got = append(got, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		i := i
		if _, err := p.Submit(func() (*CompressedWindow, error) {
			// Earlier jobs sleep longer so completions arrive reversed.
			time.Sleep(time.Duration(20-i) * time.Millisecond)
			return &CompressedWindow{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("delivery order %v not sequential", got)
		}
	}
}

func TestPipelineValidation(t *testing.T) {
	sink := func(int, *CompressedWindow) error { return nil }
	if _, err := NewPipeline(0, sink); err == nil {
		t.Error("expected error for zero workers")
	}
	if _, err := NewPipeline(2, nil); err == nil {
		t.Error("expected error for nil sink")
	}
}

// TestPipelineCloseInFlightNoLeak: Close with jobs still running and no
// error waits for every delivery and leaks nothing.
func TestPipelineCloseInFlightNoLeak(t *testing.T) {
	defer leakCheck(t)()
	var delivered atomic.Int64
	p, err := NewPipeline(2, func(int, *CompressedWindow) error {
		delivered.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := p.Submit(func() (*CompressedWindow, error) {
			time.Sleep(5 * time.Millisecond)
			return &CompressedWindow{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := delivered.Load(); got != 6 {
		t.Fatalf("delivered %d windows, want 6", got)
	}
}

// pipelineBytes compresses each window-sized run of src's slices as a
// Pipeline job on the given number of workers and returns the delivered
// windows serialized, in delivery order: the asynchronous write path.
func pipelineBytes[F num.Float](t *testing.T, opts Options, src *grid.WindowOf[F], size, workers int) [][]byte {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	p, err := NewPipeline(workers, func(id int, cw *CompressedWindow) error {
		if id != len(out) {
			return fmt.Errorf("delivered window %d, want %d", id, len(out))
		}
		out = append(out, serialized(t, cw))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < src.Len(); lo += size {
		hi := min(lo+size, src.Len())
		win := &grid.WindowOf[F]{Dims: src.Dims, Slices: src.Slices[lo:hi], Times: src.Times[lo:hi]}
		if _, err := p.Submit(func() (*CompressedWindow, error) {
			return Compress(context.Background(), c, win, Copy)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkAsyncMatchesSync[F num.Float](t *testing.T, opts Options, src *grid.WindowOf[F], workers int) {
	t.Helper()
	want := writerBytes(t, opts, src)
	got := pipelineBytes(t, opts, src, opts.WindowSize, workers)
	if len(got) != len(want) {
		t.Fatalf("workers=%d: async path emitted %d windows, sync writer %d", workers, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("workers=%d window %d: async bytes differ from the sync writer", workers, i)
		}
	}
}

// TestAsyncWriterMatchesSyncWriter: windows compressed concurrently on a
// Pipeline and delivered in order are byte-identical to the synchronous
// WriterOf's, including the short trailing window, for one and for
// several workers.
func TestAsyncWriterMatchesSyncWriter(t *testing.T) {
	defer leakCheck(t)()
	d := grid.Dims{Nx: 10, Ny: 10, Nz: 10}
	opts := DefaultOptions()
	opts.WindowSize = 10
	opts.Ratio = 16
	src := coherentWindow(d, 27, 0.3)
	for _, workers := range []int{1, 4} {
		checkAsyncMatchesSync(t, opts, src, workers)
	}
}

// TestAsyncWriter32MatchesSync: the same byte equality for float32 input.
func TestAsyncWriter32MatchesSync(t *testing.T) {
	defer leakCheck(t)()
	d := grid.Dims{Nx: 10, Ny: 8, Nz: 6}
	opts := DefaultOptions()
	opts.WindowSize = 5
	opts.Workers = 2
	checkAsyncMatchesSync(t, opts, coherentWindow32(d, 10, 0.6), 3)
}
