package ingest

import (
	"path/filepath"
	"testing"
	"time"

	"stwave/internal/storage"
)

// runWithBudget streams the given number of windows under a fixed byte
// budget and returns the high-water mark of the raw-byte ledger.
func runWithBudget(t *testing.T, windows int, budget int64) int64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mem.stw")
	w, err := storage.CreateContainer(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineOf[float64](Config{
		Opts: testOpts(), Workers: 4, MemBudget: budget,
		Policy: PolicyStall, RetryEvery: time.Millisecond,
	}, testDims(), w)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run(newTestSource(t), windows*4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.WindowsAppended != windows || stats.WindowsShed != 0 {
		t.Fatalf("stats = %+v, want %d windows appended", stats, windows)
	}
	return stats.PeakInFlightBytes
}

// TestIngestBoundedMemory is the ISSUE's scaling acceptance in ledger
// form: the raw-byte high-water mark is capped by the budget and does
// not grow with run length — 10x the windows, same peak bound.
func TestIngestBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 100 windows")
	}
	winBytes := int64(4) * int64(testDims().Len()) * 8
	budget := 3 * winBytes
	peak10 := runWithBudget(t, 10, budget)
	peak100 := runWithBudget(t, 100, budget)
	// The bound must not scale with run length: 10x the windows, same
	// budget ceiling. (The exact peak below the ceiling can vary by a
	// window with scheduling; the ceiling cannot.)
	if peak10 > budget || peak100 > budget {
		t.Fatalf("ledger exceeded budget %d: peak10=%d peak100=%d", budget, peak10, peak100)
	}
	t.Logf("peak in-flight: 10 windows = %d bytes, 100 windows = %d bytes (budget %d)", peak10, peak100, budget)
}
