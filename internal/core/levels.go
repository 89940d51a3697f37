package core

import (
	"fmt"

	"stwave/internal/compress"
	"stwave/internal/grid"
	"stwave/internal/num"
	"stwave/internal/par"
	"stwave/internal/scratch"
	"stwave/internal/transform"
)

// LevelGroup describes one independently addressable band group of the
// level-major progressive layout. Group 0 is the approximation cube left
// after all spatial levels; group g > 0 is the detail shell produced by
// spatial level L-g+1 — the coefficients inside cube Outer but outside
// cube Inner of the Mallat corner layout. Groups are ordered coarsest
// first, so a byte prefix of the level-major payload always carries a
// complete low-resolution reconstruction.
type LevelGroup struct {
	// Outer is the approximation-cube extent bounding the group
	// (CoarseDims of the grid at L-g levels).
	Outer grid.Dims
	// Inner is the next-coarser cube excluded from the group; the zero
	// value for group 0, whose shell is the whole approximation cube.
	Inner grid.Dims
	// Count is the number of coefficients in the group.
	Count int
}

// LevelGroups partitions a grid's Mallat corner layout into
// spatialLevels+1 level groups: the approximation cube plus one detail
// shell per level, coarsest first. The group counts always sum to
// d.Len(), so gathering every group is a permutation of the full
// coefficient set.
func LevelGroups(d grid.Dims, spatialLevels int) []LevelGroup {
	if spatialLevels < 0 {
		spatialLevels = 0
	}
	groups := make([]LevelGroup, spatialLevels+1)
	for g := 0; g <= spatialLevels; g++ {
		outer := transform.CoarseDims(d, spatialLevels-g)
		lg := LevelGroup{Outer: outer}
		if g > 0 {
			lg.Inner = transform.CoarseDims(d, spatialLevels-g+1)
		}
		lg.Count = outer.Len() - lg.Inner.Len()
		groups[g] = lg
	}
	return groups
}

// groupRows invokes fn(srcRowBase, x0, n) for every canonical-order row
// run of the group within a grid of dims rowDims, where srcRowBase is
// the flat index of (0, y, z) in that grid, x0 the first X coordinate of
// the run, and n its length. rowDims must contain the group's Outer
// cube. Iteration order is z-major then y — the canonical gather order
// shared by the encoder, the decoder, and the format specification.
func groupRows(g LevelGroup, rowDims grid.Dims, fn func(rowBase, x0, n int)) {
	for z := 0; z < g.Outer.Nz; z++ {
		for y := 0; y < g.Outer.Ny; y++ {
			x0 := 0
			if z < g.Inner.Nz && y < g.Inner.Ny {
				x0 = g.Inner.Nx
			}
			n := g.Outer.Nx - x0
			if n <= 0 {
				continue
			}
			fn((z*rowDims.Ny+y)*rowDims.Nx, x0, n)
		}
	}
}

// levelIndex maps a full-grid Mallat-layout index to its level group and
// its position in that group's canonical order, so survivor lists split
// into level groups without touching the dense grid. A point belongs to
// the first group whose Outer cube contains it: the largest of its
// per-axis groups, since the cubes nest. Within the group, each full-grid
// row (z, y) starts its canonical run at rowBase[g][row] + x0, so a
// point's local index is rowBase[g][row] + x.
type levelIndex struct {
	nx      int
	groups  []LevelGroup
	lx      []int   // group of each x coordinate
	lrow    []int   // larger of the y and z groups of each row z*Ny+y
	rowBase [][]int // per group and row: local index of x = 0 (rows outside the group unused)
}

func newLevelIndex(d grid.Dims, spatialLevels int) *levelIndex {
	groups := LevelGroups(d, spatialLevels)
	axis := func(n int, outer func(grid.Dims) int) []int {
		t := make([]int, n)
		g := 0
		for c := range t {
			for outer(groups[g].Outer) <= c {
				g++
			}
			t[c] = g
		}
		return t
	}
	ly := axis(d.Ny, func(o grid.Dims) int { return o.Ny })
	lz := axis(d.Nz, func(o grid.Dims) int { return o.Nz })
	li := &levelIndex{
		nx:      d.Nx,
		groups:  groups,
		lx:      axis(d.Nx, func(o grid.Dims) int { return o.Nx }),
		lrow:    make([]int, d.Ny*d.Nz),
		rowBase: make([][]int, len(groups)),
	}
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			li.lrow[z*d.Ny+y] = max(ly[y], lz[z])
		}
	}
	for g, lg := range groups {
		rb := make([]int, d.Ny*d.Nz)
		n := 0
		groupRows(lg, d, func(rowBase, x0, runLen int) {
			rb[rowBase/d.Nx] = n - x0
			n += runLen
		})
		li.rowBase[g] = rb
	}
	return li
}

// split distributes per-slice survivors over the level groups: row g
// holds, for every slice, the survivors of group g indexed in the group's
// canonical order. The canonical order is the grid's z, y, x order
// restricted to the group, so each list stays ascending. Rows are carved
// from one shared slab; slices split in parallel on up to workers
// goroutines.
func (li *levelIndex) split(survs []compress.Survivors, workers int) [][]compress.Survivors {
	ng, t := len(li.groups), len(survs)
	rows := make([][]compress.Survivors, ng)
	for g := range rows {
		rows[g] = make([]compress.Survivors, t)
	}
	offs := make([]int, t+1)
	for i, s := range survs {
		offs[i+1] = offs[i] + len(s.Idx)
	}
	idx, val := make([]int, offs[t]), make([]float64, offs[t])
	par.For(t, workers, 1, func(start, end int) {
		at := make([]int, ng) // per group: count, then running write position
		for i := start; i < end; i++ {
			s := survs[i]
			// loc packs each survivor's group (high half) and local index
			// (low half; block totals stay below 2^31). Indices ascend, so
			// the row is tracked by stepping, not dividing.
			loc := scratch.Uint64s(len(s.Idx))
			clear(at)
			row, rowEnd := 0, li.nx
			for j, x := range s.Idx {
				for x >= rowEnd {
					row++
					rowEnd += li.nx
				}
				x -= rowEnd - li.nx
				g := max(li.lx[x], li.lrow[row])
				loc[j] = uint64(g)<<32 | uint64(li.rowBase[g][row]+x) //stlint:ignore trunccast g and the local index are non-negative and below 2^32
				at[g]++
			}
			o := offs[i]
			for g, n := range at {
				rows[g][i] = compress.Survivors{Total: li.groups[g].Count, Idx: idx[o : o+n : o+n], Val: val[o : o+n : o+n]}
				at[g] = o
				o += n
			}
			for j, p := range loc {
				g := p >> 32
				idx[at[g]], val[at[g]] = int(p&(1<<32-1)), s.Val[j]
				at[g]++
			}
			scratch.PutUint64s(loc)
		}
	})
	return rows
}

// scatterGroup writes the group's canonical-order coefficients from src
// into a Mallat layout of dims sub. sub may be any approximation cube
// that contains g.Outer — scattering into CoarseDims(d, L-K) places the
// group at the same (x, y, z) coordinates it occupied in the full grid,
// which is what makes partial reconstruction a plain K-level inverse.
func scatterGroup[F num.Float](dst []F, sub grid.Dims, src []F, g LevelGroup) int {
	n := 0
	groupRows(g, sub, func(rowBase, x0, runLen int) {
		copy(dst[rowBase+x0:rowBase+x0+runLen], src[n:n+runLen])
		n += runLen
	})
	return n
}

// validateLevelGeometry checks that a group partition is consistent with
// the grid it claims to cover — the guard both serialization paths run
// before trusting group counts.
func validateLevelGeometry(d grid.Dims, spatialLevels int, numGroups int) error {
	if numGroups < 1 || numGroups > spatialLevels+1 {
		return fmt.Errorf("core: %d level groups outside [1, %d] for %d spatial levels",
			numGroups, spatialLevels+1, spatialLevels)
	}
	if !d.Valid() {
		return fmt.Errorf("core: invalid dims %v", d)
	}
	return nil
}
