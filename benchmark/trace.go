package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (the program itself carries no benchmark spans). Parent is the
// index of the span that caused it, -1 for an op root. A replay span was
// timed after its parent ended, by calling the child layer directly on a
// copy of the parent's input; it explains part of the parent's duration.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Replay bool   `json:"replay,omitempty"`
}

// recorder keeps spans in memory for one traced pass. It is used from the
// harness goroutine only. A nil recorder records nothing, so the same op
// code runs traced and untraced.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int
	op     int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under the innermost open span.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	return r.open(name, parent, false)
}

// beginReplay opens a replay span that explains part of parent.
func (r *recorder) beginReplay(name string, parent int) int {
	if r == nil {
		return -1
	}
	return r.open(name, parent, true)
}

func (r *recorder) open(name string, parent int, replay bool) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op, Replay: replay,
		Start: int64(time.Since(r.origin))})
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.origin))
	r.stack = r.stack[:len(r.stack)-1]
}

// nextOp advances the op identifier shared by the spans of one op.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// layerTime is the summed duration and self time of every span of one name.
type layerTime struct {
	total, self time.Duration
}

// layers sums each span name's duration and self time (duration minus
// the part its children cover, floored at zero so an overshooting replay
// shows as coverage above 1 instead of cancelling elsewhere). coverage is
// the self time of every non-root span over the duration of the op roots.
func (r *recorder) layers() (by map[string]layerTime, coverage float64) {
	by = make(map[string]layerTime)
	if r == nil {
		return by, 0
	}
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var roots, covered time.Duration
	for i, s := range r.spans {
		dur := time.Duration(s.End - s.Start)
		self := max(dur-time.Duration(children[i]), 0)
		lt := by[s.Name]
		lt.total += dur
		lt.self += self
		by[s.Name] = lt
		if s.Parent < 0 {
			roots += dur
		} else {
			covered += self
		}
	}
	if roots > 0 {
		coverage = float64(covered) / float64(roots)
	}
	return by, coverage
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (r *recorder) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), buf, 0o644)
}
