package server

import (
	"fmt"
	"testing"

	"stwave/internal/grid"
)

// testCacheWindow builds a window of the given shape; size in bytes is
// d.Len()*slices*8.
func testCacheWindow(d grid.Dims, slices int) *grid.Window {
	w := grid.NewWindow(d)
	for i := 0; i < slices; i++ {
		if err := w.Append(grid.NewField3D(d.Nx, d.Ny, d.Nz), float64(i)); err != nil {
			panic(err)
		}
	}
	return w
}

func TestCacheLRUEviction(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}             // 512 bytes/slice
	one := newWindow(testCacheWindow(d, 2)).bytes() // 1024 bytes
	c := NewWindowCache(3 * one)

	key := func(i int) windowKey { return windowKey{dataset: "d", window: i} }
	for i := 0; i < 3; i++ {
		c.Put(key(i), newWindow(testCacheWindow(d, 2)))
	}
	if st := c.Stats(); st.Windows != 3 || st.UsedBytes != 3*one {
		t.Fatalf("stats after fill: %+v", st)
	}
	// Touch window 0 so window 1 is the LRU, then insert window 3.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("window 0 missing")
	}
	c.Put(key(3), newWindow(testCacheWindow(d, 2)))
	if _, ok := c.Get(key(1)); ok {
		t.Error("window 1 should have been evicted as LRU")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Errorf("window %d should still be cached", i)
		}
	}
	if st := c.Stats(); st.Windows != 3 || st.UsedBytes != 3*one {
		t.Errorf("stats after eviction: %+v", st)
	}
}

func TestCacheRejectsOversizedWindow(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	c := NewWindowCache(1000) // one 2-slice window is 1024 bytes
	c.Put(windowKey{dataset: "d", window: 0}, newWindow(testCacheWindow(d, 2)))
	if st := c.Stats(); st.Windows != 0 || st.UsedBytes != 0 {
		t.Errorf("oversized window admitted: %+v", st)
	}
	if c.Admits(1024) {
		t.Error("Admits(1024) with budget 1000")
	}
	if !c.Admits(512) {
		t.Error("!Admits(512) with budget 1000")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewWindowCache(0)
	d := grid.Dims{Nx: 2, Ny: 2, Nz: 2}
	c.Put(windowKey{dataset: "d", window: 0}, newWindow(testCacheWindow(d, 1)))
	if _, ok := c.Get(windowKey{dataset: "d", window: 0}); ok {
		t.Error("zero-budget cache stored a window")
	}
}

func TestCacheReplaceAndFlush(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	c := NewWindowCache(1 << 20)
	k := windowKey{dataset: "d", window: 0}
	c.Put(k, newWindow(testCacheWindow(d, 2)))
	c.Put(k, newWindow(testCacheWindow(d, 3))) // replace with a different size
	if st := c.Stats(); st.Windows != 1 || st.UsedBytes != newWindow(testCacheWindow(d, 3)).bytes() {
		t.Errorf("stats after replace: %+v", st)
	}
	c.Flush()
	if st := c.Stats(); st.Windows != 0 || st.UsedBytes != 0 {
		t.Errorf("stats after flush: %+v", st)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	d := grid.Dims{Nx: 4, Ny: 4, Nz: 4}
	c := NewWindowCache(4 * newWindow(testCacheWindow(d, 2)).bytes())
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := windowKey{dataset: fmt.Sprintf("d%d", g%2), window: i % 8}
				if _, ok := c.Get(k); !ok {
					c.Put(k, newWindow(testCacheWindow(d, 2)))
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if st := c.Stats(); st.UsedBytes > st.BudgetBytes {
		t.Errorf("cache over budget: %+v", st)
	}
}
