// Package perf is the repo's machine-readable benchmark harness: it
// measures pipeline operations with its own calibration loop and emits
// results in a stable JSON schema that CI and EXPERIMENTS.md consumers
// can diff across commits.
//
// The harness deliberately does not use testing.Benchmark: the suite
// runs from a plain binary (stbench perf), where iteration count must be
// controllable (-quick runs every benchmark exactly once for smoke
// coverage) and where results must land in a file, not a text log.
//
// Schema (BENCH_pipeline.json):
//
//	{
//	  "schema": "stwave-bench/v1",
//	  "env": {"cores": ..., "gomaxprocs": ..., "go_version": ...},
//	  "benchmarks": [
//	    {"name": ..., "iters": ..., "ns_per_op": ..., "mb_per_s": ..., "allocs_per_op": ...},
//	    ...
//	  ]
//	}
//
// mb_per_s is 0 for benchmarks without a natural byte volume. The field
// set is append-only: consumers may rely on these five fields existing
// in every entry forever. "env" is a later append-only addition (it
// records the machine the numbers came from, which the worker-scaling
// series is meaningless without); files written before it exist remain
// valid. "samples_per_s" is a later, optional per-entry addition.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// SchemaVersion tags the result file format.
const SchemaVersion = "stwave-bench/v1"

// Result is one benchmark's measurement.
type Result struct {
	// Name identifies the benchmark (stable across releases).
	Name string `json:"name"`
	// Iters is how many times the operation ran in the measured window.
	Iters int64 `json:"iters"`
	// NsPerOp is the mean wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// MBPerS is throughput over the benchmark's declared byte volume
	// (0 when the benchmark declares none).
	MBPerS float64 `json:"mb_per_s"`
	// AllocsPerOp is the mean heap allocation count per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SamplesPerS is throughput in field samples, the unit f32 and f64
	// rows compare in; omitted by benchmarks that declare no sample count.
	SamplesPerS float64 `json:"samples_per_s,omitempty"`
}

// Env records the machine a result file was measured on. Worker-scaling
// results (scaling.*) cannot be interpreted without it.
type Env struct {
	// Cores is runtime.NumCPU at measurement time.
	Cores int `json:"cores"`
	// GoMaxProcs is the effective GOMAXPROCS at measurement time.
	GoMaxProcs int `json:"gomaxprocs"`
	// GoVersion is the toolchain that built the harness.
	GoVersion string `json:"go_version"`
}

// CurrentEnv captures the measurement environment of this process.
func CurrentEnv() Env {
	return Env{
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// File is the top-level document written to BENCH_pipeline.json.
type File struct {
	Schema string `json:"schema"`
	// Env is nil in files written by harness versions that predate it.
	Env        *Env     `json:"env,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// Config tunes a suite run.
type Config struct {
	// Quick runs every benchmark exactly once — the make-check smoke
	// mode. Timings are noisy but the schema and the code paths are
	// exercised end to end.
	Quick bool
	// MinTime is the target measurement window per benchmark when not in
	// Quick mode; <= 0 defaults to 200ms.
	MinTime time.Duration
}

// minTime applies the default.
func (c Config) minTime() time.Duration {
	if c.MinTime <= 0 {
		return 200 * time.Millisecond
	}
	return c.MinTime
}

// Measure runs fn until the measurement window is long enough to trust
// (one iteration in Quick mode) and returns the per-op statistics.
// bytesPerOp declares the operation's data volume for MB/s (0 for none).
func Measure(cfg Config, name string, bytesPerOp int64, fn func() error) (Result, error) {
	run := func(n int64) (time.Duration, float64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := int64(0); i < n; i++ {
			if err := fn(); err != nil {
				return 0, 0, fmt.Errorf("perf: %s: %w", name, err)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return elapsed, float64(after.Mallocs-before.Mallocs) / float64(n), nil
	}

	n := int64(1)
	elapsed, allocs, err := run(n)
	if err != nil {
		return Result{}, err
	}
	if !cfg.Quick {
		// Grow the iteration count until the window is long enough,
		// predicting from the last run and bounding growth, the same
		// strategy the testing package uses.
		for elapsed < cfg.minTime() {
			prev := n
			if elapsed > 0 {
				n = int64(float64(prev) * 1.2 * float64(cfg.minTime()) / float64(elapsed))
			}
			if n < prev+1 {
				n = prev + 1
			}
			if n > prev*10 {
				n = prev * 10
			}
			if elapsed, allocs, err = run(n); err != nil {
				return Result{}, err
			}
		}
	}
	r := Result{
		Name:        name,
		Iters:       n,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: allocs,
	}
	if bytesPerOp > 0 && elapsed > 0 {
		mb := float64(bytesPerOp) * float64(n) / (1 << 20)
		r.MBPerS = mb / elapsed.Seconds()
	}
	return r, nil
}

// Write emits the results as an indented schema-tagged JSON document,
// stamped with the current machine's Env.
func Write(w io.Writer, results []Result) error {
	env := CurrentEnv()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(File{Schema: SchemaVersion, Env: &env, Benchmarks: results})
}

// Validate checks that data is a well-formed result file: correct schema
// tag, at least one benchmark, and sane fields in every entry. CI runs
// this over the committed baseline and over fresh smoke runs.
func Validate(data []byte) error {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("perf: result file is not valid JSON: %w", err)
	}
	if f.Schema != SchemaVersion {
		return fmt.Errorf("perf: schema %q, want %q", f.Schema, SchemaVersion)
	}
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("perf: result file has no benchmarks")
	}
	seen := make(map[string]bool, len(f.Benchmarks))
	for i, b := range f.Benchmarks {
		switch {
		case b.Name == "":
			return fmt.Errorf("perf: benchmark %d has no name", i)
		case seen[b.Name]:
			return fmt.Errorf("perf: duplicate benchmark %q", b.Name)
		case b.Iters < 1:
			return fmt.Errorf("perf: %s: iters = %d, want >= 1", b.Name, b.Iters)
		case b.NsPerOp <= 0:
			return fmt.Errorf("perf: %s: ns_per_op = %g, want > 0", b.Name, b.NsPerOp)
		case b.MBPerS < 0:
			return fmt.Errorf("perf: %s: mb_per_s = %g, want >= 0", b.Name, b.MBPerS)
		case b.AllocsPerOp < 0:
			return fmt.Errorf("perf: %s: allocs_per_op = %g, want >= 0", b.Name, b.AllocsPerOp)
		}
		seen[b.Name] = true
	}
	return nil
}
