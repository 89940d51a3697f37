package fft

import (
	"fmt"
	"sync"

	"stwave/internal/par"
)

// Plan3 performs 3D FFTs on cubic complex arrays of side n stored in
// X-fastest order: index = (z*n + y)*n + x. Transforms along each axis are
// parallelized across lines.
type Plan3 struct {
	n       int
	plan    *Plan
	workers int
}

// NewPlan3 creates a 3D plan for an n^3 cube. workers <= 0 uses GOMAXPROCS.
func NewPlan3(n, workers int) (*Plan3, error) {
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	return &Plan3{n: n, plan: p, workers: par.Workers(workers)}, nil
}

// Forward transforms the cube in place along X, Y, then Z.
func (p *Plan3) Forward(a []complex128) { p.transform(a, false) }

// Inverse applies the inverse 3D transform in place (scaled by 1/n^3).
func (p *Plan3) Inverse(a []complex128) { p.transform(a, true) }

func (p *Plan3) transform(a []complex128, inverse bool) {
	n := p.n
	if len(a) != n*n*n {
		panic(fmt.Sprintf("fft: cube length %d != %d^3", len(a), n))
	}
	oneD := func(line []complex128) {
		if inverse {
			p.plan.Inverse(line)
		} else {
			p.plan.Forward(line)
		}
	}
	// X axis: contiguous lines.
	p.parallelLines(n*n, func(li int, buf []complex128) {
		start := li * n
		oneD(a[start : start+n])
	})
	// Y axis: stride n.
	p.parallelLines(n*n, func(li int, buf []complex128) {
		x := li % n
		z := li / n
		base := z*n*n + x
		for y := 0; y < n; y++ {
			buf[y] = a[base+y*n]
		}
		oneD(buf)
		for y := 0; y < n; y++ {
			a[base+y*n] = buf[y]
		}
	})
	// Z axis: stride n*n.
	p.parallelLines(n*n, func(li int, buf []complex128) {
		x := li % n
		y := li / n
		base := y*n + x
		for z := 0; z < n; z++ {
			buf[z] = a[base+z*n*n]
		}
		oneD(buf)
		for z := 0; z < n; z++ {
			a[base+z*n*n] = buf[z]
		}
	})
}

func (p *Plan3) parallelLines(lines int, fn func(li int, buf []complex128)) {
	workers := p.workers
	if workers > lines {
		workers = lines
	}
	if workers <= 1 {
		buf := make([]complex128, p.n)
		for li := 0; li < lines; li++ {
			fn(li, buf)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (lines + workers - 1) / workers
	for start := 0; start < lines; start += chunk {
		end := start + chunk
		if end > lines {
			end = lines
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			buf := make([]complex128, p.n)
			for li := s; li < e; li++ {
				fn(li, buf)
			}
		}(start, end)
	}
	wg.Wait()
}
