package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWorkers pins the resolution rule: a positive request stands, and
// any other resolves to GOMAXPROCS — not NumCPU — so GOMAXPROCS=1 really
// runs every default budget sequentially.
func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	procs := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != procs {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, procs)
	}
	if got := Workers(-5); got != procs {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS %d", got, procs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := Workers(0); got != 1 {
		t.Errorf("Workers(0) under GOMAXPROCS(1) = %d, want 1", got)
	}
}

func TestSplitHonorsBudgetOnce(t *testing.T) {
	cases := []struct {
		budget, n            int
		wantOuter, wantInner int
	}{
		{1, 10, 1, 1},
		{4, 10, 4, 1},
		{8, 2, 2, 4},
		{7, 3, 3, 2},
		{16, 1, 1, 16},
		{3, 0, 1, 3},
	}
	for _, c := range cases {
		outer, inner := Split(c.budget, c.n)
		if outer != c.wantOuter || inner != c.wantInner {
			t.Errorf("Split(%d, %d) = (%d, %d), want (%d, %d)",
				c.budget, c.n, outer, inner, c.wantOuter, c.wantInner)
		}
		if outer*inner > Workers(c.budget) {
			t.Errorf("Split(%d, %d) oversubscribes: %d * %d > %d",
				c.budget, c.n, outer, inner, Workers(c.budget))
		}
	}
}

// TestForCoversRangeExactlyOnce checks every index is visited exactly once
// across worker counts, grains, and sizes, including n smaller than grain.
func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 100, 1000} {
		for _, workers := range []int{1, 2, 3, 8} {
			for _, grain := range []int{1, 16, 64, 1000} {
				visits := make([]int32, n)
				For(n, workers, grain, func(start, end int) {
					for i := start; i < end; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("n=%d workers=%d grain=%d: index %d visited %d times",
							n, workers, grain, i, v)
					}
				}
			}
		}
	}
}

// TestForSequentialWhenUnderGrain asserts tiny loops never leave the
// calling goroutine: fn must be invoked exactly once with the full range.
func TestForSequentialWhenUnderGrain(t *testing.T) {
	calls := 0
	For(63, 8, 64, func(start, end int) {
		calls++
		if start != 0 || end != 63 {
			t.Errorf("sequential call got [%d,%d), want [0,63)", start, end)
		}
	})
	if calls != 1 {
		t.Errorf("got %d calls, want 1", calls)
	}
}

// TestForHeavySmallN asserts grain 1 parallelizes even tiny loops: with
// n=4 items and 4 workers, 4 distinct tasks run.
func TestForHeavySmallN(t *testing.T) {
	var mu sync.Mutex
	spans := 0
	For(4, 4, 1, func(start, end int) {
		mu.Lock()
		spans++
		mu.Unlock()
		if end-start != 1 {
			t.Errorf("task span [%d,%d), want single item", start, end)
		}
	})
	if spans != 4 {
		t.Errorf("got %d tasks, want 4", spans)
	}
}

func TestForGrainBoundsTaskCount(t *testing.T) {
	// 100 items at grain 40 justify at most 3 tasks even with 8 workers.
	var mu sync.Mutex
	tasks := 0
	For(100, 8, 40, func(start, end int) {
		mu.Lock()
		tasks++
		mu.Unlock()
	})
	if tasks > 3 {
		t.Errorf("got %d tasks, want <= 3 for n=100 grain=40", tasks)
	}
}
