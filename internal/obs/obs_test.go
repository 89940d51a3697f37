package obs

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var s *Span
	c.Add(1)
	g.Set(2)
	h.Observe(3)
	h.ObserveSince(time.Now())
	s.End()
	s.SetAttr("k", "v")
	if c.Load() != 0 || g.Load() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil instruments recorded values")
	}
	if tree := s.Tree(); tree.Name != "" || len(tree.Children) != 0 {
		t.Errorf("nil span tree = %+v", tree)
	}
}

func TestDisabledRecordingIsOff(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	var c Counter
	var h Histogram
	c.Add(5)
	h.Observe(1)
	if c.Load() != 0 || h.Snapshot().Count != 0 {
		t.Error("disabled instruments recorded values")
	}
	ctx, root := StartRoot(context.Background(), "root")
	if root != nil {
		t.Error("StartRoot returned a live span while disabled")
	}
	if _, child := Start(ctx, "child"); child != nil {
		t.Error("Start returned a live span while disabled")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// One sample per decade, plus edge cases.
	samples := []float64{0, -1, math.NaN(), 1e-9, 1e-3, 0.5, 1, 1.5, 1024, 1e12}
	for _, v := range samples {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != int64(len(samples)) {
		t.Fatalf("count = %d, want %d", s.Count, len(samples))
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
		if b.Count <= 0 {
			t.Errorf("snapshot contains empty bucket at %g", b.UpperBound)
		}
	}
	if total != s.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, s.Count)
	}
	// Exact powers of two land in the bucket they bound: v = 1 has upper
	// bound exactly 1, v = 1024 has upper bound exactly 1024.
	for _, want := range []float64{1, 1024} {
		found := false
		for _, b := range s.Buckets {
			if b.UpperBound == want {
				found = true
			}
		}
		if !found {
			t.Errorf("no bucket with upper bound %g", want)
		}
	}
	// Buckets ascend.
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].UpperBound <= s.Buckets[i-1].UpperBound {
			t.Errorf("buckets not ascending: %g after %g", s.Buckets[i].UpperBound, s.Buckets[i-1].UpperBound)
		}
	}
}

func TestHistogramMeanAndQuantiles(t *testing.T) {
	var h Histogram
	// 100 samples at ~1ms, 10 at ~100ms: p50 near 1ms, p99 near 100ms,
	// within the 2x bucket resolution.
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.1)
	}
	s := h.Snapshot()
	wantMean := (100*0.001 + 10*0.1) / 110
	if math.Abs(s.Mean-wantMean) > 1e-12 {
		t.Errorf("mean = %g, want %g", s.Mean, wantMean)
	}
	if s.P50 < 0.0005 || s.P50 > 0.002 {
		t.Errorf("p50 = %g, want ~0.001 within 2x", s.P50)
	}
	if s.P99 < 0.05 || s.P99 > 0.2 {
		t.Errorf("p99 = %g, want ~0.1 within 2x", s.P99)
	}
}

func TestRegistryGetOrCreateAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a.total") != r.Counter("a.total") {
		t.Error("Counter not idempotent")
	}
	if r.Histogram("a.seconds") != r.Histogram("a.seconds") {
		t.Error("Histogram not idempotent")
	}
	if r.Gauge("a.ratio") != r.Gauge("a.ratio") {
		t.Error("Gauge not idempotent")
	}
	r.Counter("a.total").Add(3)
	r.Gauge("a.ratio").Set(0.5)
	r.Histogram("a.seconds").Observe(0.25)

	s := r.Snapshot()
	if s.Counters["a.total"] != 3 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Gauges["a.ratio"] != 0.5 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	if s.Histograms["a.seconds"].Count != 1 {
		t.Errorf("histograms = %v", s.Histograms)
	}
	if n := len(s.Counters) + len(s.Gauges) + len(s.Histograms); n != 3 {
		t.Errorf("snapshot holds %d instruments, want 3", n)
	}
}

func TestRegistryConcurrentCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("shared.total").Add(1)
				r.Histogram("shared.seconds").Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared.total").Load(); got != 800 {
		t.Errorf("shared.total = %d, want 800", got)
	}
}

func TestSpanTree(t *testing.T) {
	ctx, root := StartRoot(context.Background(), "request")
	if root == nil {
		t.Fatal("StartRoot returned nil while enabled")
	}
	ctx1, read := Start(ctx, "storage.read_window")
	read.SetAttr("window", "3")
	_, decode := Start(ctx1, "core.decompress")
	decode.End()
	read.End()
	_, sib := Start(ctx, "cache.lookup")
	sib.End()
	root.End()

	tree := root.Tree()
	if tree.Name != "request" || len(tree.Children) != 2 {
		t.Fatalf("tree = %+v", tree)
	}
	if tree.Children[0].Name != "storage.read_window" ||
		tree.Children[0].Attrs["window"] != "3" ||
		len(tree.Children[0].Children) != 1 ||
		tree.Children[0].Children[0].Name != "core.decompress" {
		t.Errorf("child 0 = %+v", tree.Children[0])
	}
	if tree.Children[1].Name != "cache.lookup" {
		t.Errorf("child 1 = %+v", tree.Children[1])
	}
	var names []string
	tree.Walk(func(n SpanTree, depth int) { names = append(names, n.Name) })
	if len(names) != 4 {
		t.Errorf("walk visited %v", names)
	}
	// JSON round-trips.
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanTree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != tree.Name {
		t.Errorf("round-trip name = %q", back.Name)
	}
}

func TestStartWithoutRootIsNoOp(t *testing.T) {
	ctx, s := Start(context.Background(), "orphan")
	if s != nil {
		t.Error("Start without a root returned a live span")
	}
	if FromContext(ctx) != nil {
		t.Error("context unexpectedly carries a span")
	}
}

func TestHandlerServesMergedSnapshot(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	a.Counter("a.total").Add(1)
	b.Counter("b.total").Add(2)
	rec := httptest.NewRecorder()
	Handler(a, b).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if s.Counters["a.total"] != 1 || s.Counters["b.total"] != 2 {
		t.Errorf("merged counters = %v", s.Counters)
	}
}

// The overhead benchmarks below back the "instrumentation is below
// run-to-run noise" claim in EXPERIMENTS.md: the per-record cost of each
// primitive, with recording enabled and disabled.

func BenchmarkCounterAdd(b *testing.B) {
	c := &Counter{}
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	for i := 0; i < b.N; i++ {
		h.Observe(1.5e-3)
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	SetEnabled(false)
	defer SetEnabled(true)
	h := &Histogram{}
	for i := 0; i < b.N; i++ {
		h.Observe(1.5e-3)
	}
}

func BenchmarkRegistryHistogramLookup(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < b.N; i++ {
		r.Histogram("storage.write_seconds").Observe(1.5e-3)
	}
}

func BenchmarkStartWithoutRoot(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "noop")
		sp.End()
	}
}
