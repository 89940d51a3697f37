// Package scratch is the pipeline's shared scratch-buffer arena: a set of
// size-classed sync.Pools for the temporary float64, float32, uint64, and int
// slices the compression hot path burns through (transform tile slabs,
// threshold candidate buffers, cloned work windows, survivor lists). Reusing them drives the
// steady-state allocation count of core.Compress toward zero.
//
// Buffers are pooled by power-of-two capacity class. Get functions return
// a slice of exactly the requested length whose contents are arbitrary —
// callers must fully overwrite before reading. Put functions accept any
// slice; buffers whose capacity is not a pooled class (or that are too
// small to be worth keeping) are dropped on the floor, so it is always
// safe to Put a buffer that came from somewhere else.
package scratch

import (
	"math/bits"
	"sync"

	"stwave/internal/num"
)

// minClass is the smallest pooled capacity (1 << minClass). Buffers under
// 256 elements are cheaper to allocate than to pool.
const minClass = 8

// maxClass is the largest pooled capacity exponent (1 << maxClass
// elements, 128 Mi — a 2 GiB float64 buffer). Larger requests allocate
// directly and are never pooled.
const maxClass = 27

// pools[c] holds *[]T buffers of capacity exactly 1 << c.
var (
	floatPools   [maxClass + 1]sync.Pool
	float32Pools [maxClass + 1]sync.Pool
	uint64Pools  [maxClass + 1]sync.Pool
	intPools     [maxClass + 1]sync.Pool
	// Box pools recycle the *[]T header boxes between Get and Put: a
	// pointer round-trips through a sync.Pool without allocating, but
	// boxing a fresh slice header on every Put would cost one small heap
	// allocation per call — exactly the steady-state garbage this package
	// exists to remove.
	floatBoxes   sync.Pool
	float32Boxes sync.Pool
	uint64Boxes  sync.Pool
	intBoxes     sync.Pool
)

// class returns the pool class for a request of n elements: the smallest
// c with 1<<c >= n, clamped to minClass. ok is false when n is too large
// to pool.
func class(n int) (c int, ok bool) {
	if n <= 1<<minClass {
		return minClass, true
	}
	c = bits.Len(uint(n - 1))
	return c, c <= maxClass
}

// putClass returns the pool class a buffer of capacity cap belongs to:
// pooled classes have exactly power-of-two capacity. ok is false for
// foreign capacities, which are dropped rather than pooled.
func putClass(capacity int) (c int, ok bool) {
	if capacity < 1<<minClass || capacity&(capacity-1) != 0 {
		return 0, false
	}
	c = bits.Len(uint(capacity)) - 1
	return c, c <= maxClass
}

// Floats returns a float64 slice of length n with arbitrary contents.
func Floats(n int) []float64 {
	if c, ok := class(n); ok {
		if p, _ := floatPools[c].Get().(*[]float64); p != nil {
			s := *p
			*p = nil
			floatBoxes.Put(p)
			return s[:n]
		}
		return make([]float64, n, 1<<c)
	}
	return make([]float64, n)
}

// PutFloats returns a buffer to the arena for reuse.
func PutFloats(s []float64) {
	if c, ok := putClass(cap(s)); ok {
		p, _ := floatBoxes.Get().(*[]float64)
		if p == nil {
			p = new([]float64)
		}
		*p = s[:cap(s)]
		floatPools[c].Put(p)
	}
}

// Floats32 returns a float32 slice of length n with arbitrary contents.
func Floats32(n int) []float32 {
	if c, ok := class(n); ok {
		if p, _ := float32Pools[c].Get().(*[]float32); p != nil {
			s := *p
			*p = nil
			float32Boxes.Put(p)
			return s[:n]
		}
		return make([]float32, n, 1<<c)
	}
	return make([]float32, n)
}

// PutFloats32 returns a buffer to the arena for reuse.
func PutFloats32(s []float32) {
	if c, ok := putClass(cap(s)); ok {
		p, _ := float32Boxes.Get().(*[]float32)
		if p == nil {
			p = new([]float32)
		}
		*p = s[:cap(s)]
		float32Pools[c].Put(p)
	}
}

// FloatsOf returns a slice of length n at precision F with arbitrary
// contents — the precision-generic pipeline stages' view of the arena.
// The pointer-based type switch dispatches to the concrete pool without
// boxing the slice itself.
func FloatsOf[F num.Float](n int) []F {
	var s []F
	switch p := any(&s).(type) {
	case *[]float64:
		*p = Floats(n)
	case *[]float32:
		*p = Floats32(n)
	}
	return s
}

// PutFloatsOf returns a precision-generic buffer to the arena for reuse.
func PutFloatsOf[F num.Float](s []F) {
	switch p := any(&s).(type) {
	case *[]float64:
		PutFloats(*p)
	case *[]float32:
		PutFloats32(*p)
	}
}

// Uint64s returns a uint64 slice of length n with arbitrary contents.
func Uint64s(n int) []uint64 {
	if c, ok := class(n); ok {
		if p, _ := uint64Pools[c].Get().(*[]uint64); p != nil {
			s := *p
			*p = nil
			uint64Boxes.Put(p)
			return s[:n]
		}
		return make([]uint64, n, 1<<c)
	}
	return make([]uint64, n)
}

// PutUint64s returns a buffer to the arena for reuse.
func PutUint64s(s []uint64) {
	if c, ok := putClass(cap(s)); ok {
		p, _ := uint64Boxes.Get().(*[]uint64)
		if p == nil {
			p = new([]uint64)
		}
		*p = s[:cap(s)]
		uint64Pools[c].Put(p)
	}
}

// Ints returns an int slice of length n with arbitrary contents.
func Ints(n int) []int {
	if c, ok := class(n); ok {
		if p, _ := intPools[c].Get().(*[]int); p != nil {
			s := *p
			*p = nil
			intBoxes.Put(p)
			return s[:n]
		}
		return make([]int, n, 1<<c)
	}
	return make([]int, n)
}

// PutInts returns a buffer to the arena for reuse.
func PutInts(s []int) {
	if c, ok := putClass(cap(s)); ok {
		p, _ := intBoxes.Get().(*[]int)
		if p == nil {
			p = new([]int)
		}
		*p = s[:cap(s)]
		intPools[c].Put(p)
	}
}
