// Command benchmark is the repository's benchmark: one process that drives
// the shipped entry points — ingest.EngineOf.Run into a per-window-fsynced
// storage.ContainerWriter on a real file, and server.Server.Handler()
// behind a real loopback net/http listener — over five workloads, prints
// every metric by name and unit, and checks the outputs. README.md in this
// directory says what each workload and metric is for.
//
//	bash benchmark/run.sh --workload serve_cold --seed 1 --seconds 10 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"stwave/internal/grid"
)

// passes is the number of timed passes per run, with a collection before
// each.
const passes = 5

// setupReps is how many times a full run builds its set-up from nothing;
// setup_s is the median.
const setupReps = 3

// workloadDef sizes one workload. rate is the ops per second of --seconds
// a pass is sized for on the reference host (2 vCPU): the op count is
// fixed by --seconds alone, never by how fast the code under test is, so
// every commit runs the same op sequence.
type workloadDef struct {
	name     string
	why      string
	rate     float64
	block    int // ops per block; a pass is a whole number of blocks
	warmOps  int // 0: a quarter of a pass
	traceOps int
	quickOps int
	make     func(*env) workload
}

var workloadDefs = []workloadDef{
	{
		name: "ingest_f64", why: "archival in-situ write path: f64, entropy codec, progressive layout, fsync per window",
		rate: 14, block: 8, warmOps: 6, traceOps: 6, quickOps: 16,
		make: func(e *env) workload { return &ingestWorkload[float64]{env: e, spec: specF64} },
	},
	{
		name: "ingest_f32", why: "fast in-situ write path: f32 kernels, sparse codec, 3.6x larger records, so storage shows",
		rate: 19.5, block: 8, warmOps: 6, traceOps: 6, quickOps: 16,
		make: func(e *env) workload { return &ingestWorkload[float32]{env: e, spec: specF32} },
	},
	{
		name: "serve_cold", why: "every request misses a 2-window cache: read, entropy decode and inverse 4D dominate",
		rate: 16, block: 4, warmOps: 8, traceOps: 8, quickOps: 8,
		make: func(e *env) workload { return &serveWorkload{env: e, kind: serveCold} },
	},
	{
		name: "serve_preview", why: "time to first coarse preview with no cache: prefix read, partial f32 decode, coarse inverse",
		rate: 360, block: 8, traceOps: 80, quickOps: 40,
		make: func(e *env) workload { return &serveWorkload{env: e, kind: servePreview} },
	},
	{
		name: "serve_hot_mix", why: "cache hits only, 2 clients, 5 routes: HTTP, lookup, narrowing; transform/codec must show no change",
		rate: 2300, block: 40, traceOps: 200, quickOps: 200,
		make: func(e *env) workload { return &serveWorkload{env: e, kind: serveHotMix} },
	},
}

// env is what a workload is given: where to write and what to generate.
type env struct {
	seed   int64
	dims   grid.Dims
	window int
	tmp    string
}

// passStats is one pass of a workload's op sequence.
type passStats struct {
	ops       int
	wall, cpu time.Duration
	latencies []float64  // ms, one per op that succeeded
	samples   []opSample // one per op that succeeded
	failed    int
}

// opSample is taken when an op completes: the time since the pass began,
// the CPU the process has used since then, and the op's latency.
type opSample struct {
	end, cpu time.Duration
	latency  float64 // ms
}

// blocks cuts a pass into runs of size consecutive completions and gives
// each block's rate (ops/s), CPU per op (ms) and median latency (ms). The
// first size completions only open the first block, which keeps a
// pipeline's fill out of the rate.
func blocks(samples []opSample, size int) (rate, cpu, latency []float64) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	for i := size; i < len(samples); i += size {
		from, to := samples[i-size], samples[i]
		lat := make([]float64, 0, size)
		for _, s := range samples[i-size+1 : i+1] {
			lat = append(lat, s.latency)
		}
		rate = append(rate, float64(size)/(to.end-from.end).Seconds())
		cpu = append(cpu, ms(to.cpu-from.cpu)/float64(size))
		latency = append(latency, median(lat))
	}
	return rate, cpu, latency
}

// serialStats is one serial (traced or untraced) pass.
type serialStats struct {
	ops    int
	opTime time.Duration // summed op spans
	cpu    time.Duration
}

// verdict is the outcome of the verification sweep and the self-checks.
type verdict struct {
	attempted, failed int
	psnr              float64
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

// workload is one isolated scenario: its own fixture, engine or server,
// and files. Nothing is shared between workloads or cached between runs.
type workload interface {
	setup() error
	teardown() error
	fixtureHash() string
	opsHash(ops int) string
	// pass runs ops ops through the shipped entry point, closed loop.
	pass(ops int, timed bool) (passStats, error)
	// serial runs ops ops one at a time from the harness, recording spans
	// and replaying child layers when rec is non-nil.
	serial(ops int, rec *recorder) (serialStats, error)
	verify() (verdict, error)
	storedBytesPerRawByte() float64
	layerMetrics(m map[string]float64, r *runResult)
}

// runResult is everything one run measured.
type runResult struct {
	e2e, layer        map[string]float64 // layer holds the timed metrics on every run
	attempted, failed int
	correct           bool

	pooledLatencies   []float64
	traced, untraced  serialStats
	layers            map[string]layerTime
	fixtureSHA, opSHA string
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	outDir   string
	tmpRoot  string
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// opsPerPass fixes a pass's op count from --seconds alone.
func (d workloadDef) opsPerPass(o options) int {
	if o.quick {
		return d.quickOps
	}
	ops := int(math.Round(d.rate * float64(o.seconds) / passes))
	return max((ops+d.block-1)/d.block, 2) * d.block
}

func run(o options) (*runResult, error) {
	def, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp) // a failed removal only leaves litter under the ignored build directory

	e := &env{seed: o.seed, dims: grid.Dims{Nx: 64, Ny: 64, Nz: 64}, window: 20, tmp: tmp}
	reps, nPasses := setupReps, passes
	if o.trace {
		reps = 1 // a traced run does not report setup_s
	}
	if o.quick {
		e.dims, e.window = grid.Dims{Nx: 32, Ny: 32, Nz: 32}, 10
		reps, nPasses = 1, 1
	}
	wl := def.make(e)
	res := &runResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	m := res.layer
	for _, d := range layerMetrics {
		m[d.name] = 0
	}

	// Set-up is rebuilt from nothing each time, so it costs the same on
	// every repetition and work moved into it shows.
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			if err := wl.teardown(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		start := time.Now()
		if err := wl.setup(); err != nil {
			wl.teardown() // releasing a half-built set-up; the set-up error is what gets reported
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer wl.teardown() // the run's result is already decided by then

	ops := def.opsPerPass(o)
	res.fixtureSHA, res.opSHA = wl.fixtureHash(), wl.opsHash(ops)

	warmOps := def.warmOps
	if warmOps == 0 {
		warmOps = max(ops/4, 1)
	}
	warm, err := wl.pass(warmOps, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	res.attempted, res.failed = warm.ops, warm.failed

	// Every block of the five passes is one observation of each timed
	// metric; the run reports the fast decile beside the median over whole
	// passes. A neighbour on the host can only slow a block down, so the
	// fast decile is what the program costs when the host leaves it alone
	// for part of the run (README, "The timed metrics").
	var rate, cpu, latency []float64
	var passRate, passCPU, passLatency []float64 // one value per pass
	mem0 := readMem()
	for p := 0; p < nPasses; p++ {
		runtime.GC()
		st, err := wl.pass(ops, true)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		res.attempted += st.ops
		res.failed += st.failed
		r, c, l := blocks(st.samples, def.block)
		rate, cpu, latency = append(rate, r...), append(cpu, c...), append(latency, l...)
		res.pooledLatencies = append(res.pooledLatencies, st.latencies...)
		passRate = append(passRate, float64(st.ops)/st.wall.Seconds())
		passCPU = append(passCPU, ms(st.cpu)/float64(st.ops))
		passLatency = append(passLatency, median(st.latencies))
	}
	mem1 := readMem()
	timedOps := float64(ops * nPasses)

	m["ops_per_s"] = percentile(rate, 0.9)
	m["latency_p50_ms"] = percentile(latency, 0.1)
	m["cpu_ms_per_op"] = percentile(cpu, 0.1)
	m["pass.ops_per_s"] = median(passRate)
	m["pass.latency_p50_ms"] = median(passLatency)
	m["pass.cpu_ms_per_op"] = median(passCPU)
	res.e2e["setup_s"] = median(setups)
	res.e2e["stored_bytes_per_raw_byte"] = wl.storedBytesPerRawByte()

	v, err := wl.verify()
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	res.e2e["psnr_db"] = v.psnr

	if o.trace {
		traceOps := def.traceOps
		if o.quick {
			traceOps = max(traceOps/4, 2)
		}
		runtime.GC()
		if res.untraced, err = wl.serial(traceOps, nil); err != nil {
			return nil, fmt.Errorf("untraced serial pass: %w", err)
		}
		runtime.GC()
		rec := newRecorder()
		if res.traced, err = wl.serial(traceOps, rec); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		res.attempted += 2 * traceOps
		var coverage float64
		res.layers, coverage = rec.layers()
		if err := rec.write(o.outDir, def.name, o.seed); err != nil {
			return nil, err
		}

		wl.layerMetrics(m, res)
		m["process.allocs_per_op"] = float64(mem1.mallocs-mem0.mallocs) / timedOps
		m["process.alloc_bytes_per_op"] = float64(mem1.allocBytes-mem0.allocBytes) / timedOps
		m["process.gc_pause_ms_total"] = ms(mem1.gcPause - mem0.gcPause)
		m["process.heap_peak_mb"] = mem1.heapSysMB
		m["process.rss_peak_mb"] = peakRSSMB()
		m["host.cores"] = float64(runtime.NumCPU())
		m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		m["host.triad_gb_per_s"] = triadGBPerS()
		m["trace.coverage"] = coverage
		if res.untraced.opTime > 0 {
			m["trace.overhead_frac"] = float64(res.traced.opTime-res.untraced.opTime) / float64(res.untraced.opTime)
		}
		// Smoke mode checks the plumbing; its few ops on a small fixture are
		// too short for a share of them to mean anything.
		if !o.quick {
			if coverage < 0.9 {
				v.fail("trace.coverage %.3f: more than a tenth of the op span is in no layer", coverage)
			}
			// Both from the traced pass, so a host that changes speed between
			// passes cannot fake or hide a slow harness.
			if fill, op := res.layers["source.fill"].total, res.layers["op"].total; 10*fill > op {
				v.fail("source.fill is %v of %v traced op time: the harness, not the program, is being timed", fill, op)
			}
		}
	}
	if math.IsNaN(v.psnr) || math.IsInf(v.psnr, 0) || v.psnr < minPSNR {
		v.fail("psnr_db %v: the verification sweep compared nothing or the outputs are wrong", v.psnr)
	}
	res.attempted += v.attempted
	res.failed += v.failed
	res.correct = res.failed == 0
	return res, nil
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric measured, then — as the last line — the
// result object: end-to-end metrics untraced, per-layer metrics traced.
func report(o options, res *runResult) error {
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("fixture sha256 %s\nop sequence sha256 %s\n", res.fixtureSHA, res.opSHA)
	show := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			fmt.Printf("  %-40s %16.6f %s\n", d.name, vals[d.name], d.unit)
		}
	}
	show(endToEndMetrics, res.e2e)
	defs, vals := endToEndMetrics, res.e2e
	if !o.trace {
		show(timedMetrics, res.layer)
	} else {
		show(layerMetrics, res.layer)
		defs, vals = layerMetrics, res.layer
		names := make([]string, 0, len(res.layers))
		for n := range res.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("traced pass, %d ops (ms per op: total, self)\n", res.traced.ops)
		for _, n := range names {
			lt := res.layers[n]
			fmt.Printf("  %-40s %12.4f %12.4f\n", n, ms(lt.total)/float64(res.traced.ops), ms(lt.self)/float64(res.traced.ops))
		}
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var o options
	trace := 0
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five, one after another)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the fixture and of the request sequence")
	flag.IntVar(&o.seconds, "seconds", 12, "measuring time the five timed passes are sized for")
	flag.IntVar(&trace, "trace", 0, "1: add the traced pass and report the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: 32^3 x 10 fixture, one set-up, one pass")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for trace-<workload>.json")
	flag.StringVar(&o.tmpRoot, "tmp", ".bench_build/tmp", "directory for containers written during the run")
	flag.Parse()
	o.trace = trace != 0
	if o.seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, d := range workloadDefs {
			names = append(names, d.name)
		}
	}
	ok := true
	for _, name := range names {
		o.workload = name
		res, err := run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := report(o, res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		ok = ok && res.correct
	}
	if !ok {
		os.Exit(1)
	}
}
