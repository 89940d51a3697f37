// Package storage models the tiered storage stack of the paper's Table I
// experiment — a fast node-local buffer tier (SSD / burst buffer) in front
// of a slower permanent tier (parallel filesystem) — and provides a real
// file container for compressed windows with per-window random access.
//
// The cost model is deliberately simple and deterministic: each tier has a
// sustained bandwidth and a per-operation latency, and transfer time is
// latency + bytes/bandwidth. The defaults are calibrated so the Table I
// reproduction matches the paper's measured machine (2 TB SSD at roughly
// 1.5 GB/s, a PFS sustaining ~540 MB/s for large writes).
package storage

import (
	"fmt"
	"sync"
	"time"
)

// Tier identifies a storage level.
type Tier int

const (
	// Buffer is the fast node-local tier (SSD / burst buffer).
	Buffer Tier = iota
	// Permanent is the parallel-filesystem tier.
	Permanent
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case Buffer:
		return "buffer"
	case Permanent:
		return "permanent"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// TierSpec describes one tier's performance.
type TierSpec struct {
	// WriteBandwidth and ReadBandwidth are sustained rates in bytes/sec.
	WriteBandwidth float64
	ReadBandwidth  float64
	// Latency is the fixed per-operation cost.
	Latency time.Duration
}

// PerfModel accumulates simulated I/O time across tiers. It is safe for
// concurrent use: specs are immutable after NewModel, and the mutex
// guards the accumulator maps (concurrent simulation ranks account I/O
// through one shared model).
type PerfModel struct {
	specs map[Tier]TierSpec

	mu        sync.Mutex
	writeTime map[Tier]time.Duration
	readTime  map[Tier]time.Duration
}

// DefaultModel returns a model calibrated to the paper's test system: the
// Table I numbers imply ~1.5 GB/s SSD writes and reads (10 GB in
// 6.78 s / 6.5 s) and ~540 MB/s permanent-storage writes (10 GB in 18.9 s).
func DefaultModel() *PerfModel {
	return NewModel(map[Tier]TierSpec{
		Buffer: {
			WriteBandwidth: 10 * 1e9 / 6.78,
			ReadBandwidth:  10 * 1e9 / 6.50,
			Latency:        100 * time.Microsecond,
		},
		Permanent: {
			WriteBandwidth: 10 * 1e9 / 18.90,
			ReadBandwidth:  10 * 1e9 / 18.90,
			Latency:        5 * time.Millisecond,
		},
	})
}

// NewModel builds a model from explicit tier specs.
func NewModel(specs map[Tier]TierSpec) *PerfModel {
	m := &PerfModel{
		specs:     make(map[Tier]TierSpec, len(specs)),
		writeTime: make(map[Tier]time.Duration),
		readTime:  make(map[Tier]time.Duration),
	}
	for t, s := range specs {
		m.specs[t] = s
	}
	return m
}

// WriteCost returns the simulated time to write n bytes to the tier,
// without recording it.
func (m *PerfModel) WriteCost(t Tier, n int64) (time.Duration, error) {
	s, ok := m.specs[t]
	if !ok {
		return 0, fmt.Errorf("storage: unknown tier %v", t)
	}
	if n < 0 {
		return 0, fmt.Errorf("storage: negative byte count %d", n)
	}
	return s.Latency + time.Duration(float64(n)/s.WriteBandwidth*float64(time.Second)), nil
}

// ReadCost returns the simulated time to read n bytes from the tier.
func (m *PerfModel) ReadCost(t Tier, n int64) (time.Duration, error) {
	s, ok := m.specs[t]
	if !ok {
		return 0, fmt.Errorf("storage: unknown tier %v", t)
	}
	if n < 0 {
		return 0, fmt.Errorf("storage: negative byte count %d", n)
	}
	return s.Latency + time.Duration(float64(n)/s.ReadBandwidth*float64(time.Second)), nil
}

// RecordWrite accounts a write of n bytes and returns its cost.
func (m *PerfModel) RecordWrite(t Tier, n int64) (time.Duration, error) {
	d, err := m.WriteCost(t, n)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	m.writeTime[t] += d
	m.mu.Unlock()
	return d, nil
}

// RecordRead accounts a read of n bytes and returns its cost.
func (m *PerfModel) RecordRead(t Tier, n int64) (time.Duration, error) {
	d, err := m.ReadCost(t, n)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	m.readTime[t] += d
	m.mu.Unlock()
	return d, nil
}

// WriteTime returns the accumulated simulated write time on the tier.
func (m *PerfModel) WriteTime(t Tier) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writeTime[t]
}

// ReadTime returns the accumulated simulated read time on the tier.
func (m *PerfModel) ReadTime(t Tier) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readTime[t]
}

// TotalIO returns total simulated I/O time across all tiers — the paper's
// "Total I/O" column.
func (m *PerfModel) TotalIO() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var d time.Duration
	for _, v := range m.writeTime {
		d += v
	}
	for _, v := range m.readTime {
		d += v
	}
	return d
}

// Reset clears accumulated counters (specs are kept).
func (m *PerfModel) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for t := range m.writeTime {
		delete(m.writeTime, t)
	}
	for t := range m.readTime {
		delete(m.readTime, t)
	}
}
