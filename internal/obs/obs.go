// Package obs is the pipeline-wide observability layer: a process-wide
// metrics registry (counters, gauges, and histograms with fixed
// log-spaced buckets), lightweight tracing spans propagated through
// context, and an HTTP handler exposing both as JSON.
//
// The package is built for hot paths that are already expensive at the
// call granularity being measured (a window decompression costs tens of
// milliseconds; a container fsync costs at least a disk flush), so every
// instrument is a handful of atomic operations:
//
//   - Counter and Gauge are single atomics.
//   - Histogram buckets an observation with math.Frexp (one float
//     decomposition, no loops, no locks) into power-of-two buckets.
//   - A span is recorded only when a root span was explicitly started for
//     the surrounding request or run; otherwise obs.Start is one context
//     lookup that returns a nil (no-op) span.
//
// All instruments degrade to no-ops when the package is disabled with
// SetEnabled(false), which is how the "overhead when disabled" numbers in
// DESIGN.md §9 are measured. Instruments are nil-safe: a nil *Counter,
// *Gauge, *Histogram, or *Span ignores all method calls, so callers never
// need to guard instrumentation sites.
//
// Naming convention: metric names are dot-separated "layer.measurement"
// with a unit suffix, e.g. "storage.read_seconds",
// "transform.forward_3d_seconds.cdf97", "compress.threshold_mb_per_s",
// "server.cache_hits". Dynamic label values (kernel names) are appended
// as a final dot-separated component in slug form.
package obs

import "sync/atomic"

// enabled gates all recording. Defaults to on: the per-call cost of the
// instruments is negligible against the window-granularity operations
// they measure (see DESIGN.md §9 for the measured overhead).
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns all metric recording and span creation on or off
// process-wide. Disabling is intended for overhead measurements and for
// operators who want the binary equivalent of PR 3's uninstrumented
// pipeline; reads (snapshots, handlers) keep working and report whatever
// was recorded while enabled.
func SetEnabled(on bool) { enabled.Store(on) }
