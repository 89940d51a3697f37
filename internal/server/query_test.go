package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"stwave/internal/core"
	"stwave/internal/grid"
)

// layoutCase is one container the query-path tests serve.
type layoutCase struct {
	name string
	opts core.Options
}

// layoutCases covers the progressive and slice-major layouts at both
// precisions, in windows of three slices.
func layoutCases() []layoutCase {
	var out []layoutCase
	for _, prec := range []core.Precision{core.Float64, core.Float32} {
		for _, prog := range []bool{true, false} {
			opts := core.DefaultOptions()
			opts.WindowSize, opts.Ratio = 3, 8
			opts.Precision, opts.Progressive = prec, prog
			name := prec.String() + "-slice-major"
			if prog {
				name = prec.String() + "-progressive"
			}
			out = append(out, layoutCase{name, opts})
		}
	}
	return out
}

// serveDirect answers one GET through the handler itself, with no
// listener in between.
func serveDirect(h http.Handler, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

// TestCacheBudgetNeverChangesAnswer: a server with no cache and one whose
// cache holds everything answer every slice, crop, preview and render
// request with the same status and body bytes. Only how they got there
// differs: the cacheless server answers X-Cache "uncached" and makes no
// cache lookup, the other answers miss or hit and counts exactly one
// lookup per cacheable request.
func TestCacheBudgetNeverChangesAnswer(t *testing.T) {
	d := grid.Dims{Nx: 20, Ny: 18, Nz: 18}
	for _, lc := range layoutCases() {
		t.Run(lc.name, func(t *testing.T) {
			path := writeContainer(t, d, 6, lc.opts, func(ts int) float64 { return float64(ts) })
			none, all := New(Config{}), New(Config{CacheBytes: 1 << 30})
			for _, s := range []*Server{none, all} {
				if err := s.Mount("d", path); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
			}
			L := all.mounts["d"].ref.SpatialLevels
			if L < 2 {
				t.Fatalf("container has %d spatial levels; need >= 2", L)
			}
			var ok, tooDeep []string
			for _, ti := range []int{1, 5} { // one slice in each window
				q := "t=" + strconv.Itoa(ti)
				ok = append(ok, "slice?"+q, "crop?"+q+"&x0=1&y0=2&z0=3&nx=9&ny=7&nz=5",
					"render?"+q, "render?"+q+"&kind=mip&axis=y&format=ppm")
				for k := 0; k <= L; k++ {
					ok = append(ok, fmt.Sprintf("slice?%s&levels=%d", q, k))
				}
				for k := 1; k <= L; k++ {
					ok = append(ok, fmt.Sprintf("preview?%s&levels=%d", q, k))
				}
				tooDeep = append(tooDeep, fmt.Sprintf("preview?%s&levels=%d", q, L+1))
			}
			hNone, hAll := none.Handler(), all.Handler()
			for _, u := range append(ok, tooDeep...) {
				rn, ra := serveDirect(hNone, "/v1/d/"+u), serveDirect(hAll, "/v1/d/"+u)
				if rn.Code != ra.Code || !bytes.Equal(rn.Body.Bytes(), ra.Body.Bytes()) {
					t.Errorf("%s: uncached answers %d (%d bytes), cached %d (%d bytes)",
						u, rn.Code, rn.Body.Len(), ra.Code, ra.Body.Len())
				}
				if ra.Code != http.StatusOK {
					continue
				}
				if got := rn.Header().Get("X-Cache"); got != string(stateUncached) {
					t.Errorf("%s: uncached server X-Cache %q, want %q", u, got, stateUncached)
				}
				if got := ra.Header().Get("X-Cache"); got != string(stateMiss) && got != string(stateHit) {
					t.Errorf("%s: cached server X-Cache %q, want miss or hit", u, got)
				}
			}
			for _, u := range tooDeep {
				if rec := serveDirect(hAll, "/v1/d/"+u); rec.Code != http.StatusBadRequest {
					t.Errorf("%s: status %d, want 400", u, rec.Code)
				}
			}
			// The two tooDeep probes above are rejected before any lookup.
			n := int64(len(ok))
			mn, ma := none.Metrics(), all.Metrics()
			if h, m := mn.CacheHits.Load(), mn.CacheMisses.Load(); h+m != 0 {
				t.Errorf("uncached server counted %d hits and %d misses, want none", h, m)
			}
			if got := mn.Decompressions.Load(); got != 0 {
				t.Errorf("uncached server ran %d whole-window decompressions, want 0", got)
			}
			if got := mn.SliceDecodes.Load(); got != n {
				t.Errorf("uncached server ran %d slice decodes, want one per answer (%d)", got, n)
			}
			if h, m := ma.CacheHits.Load(), ma.CacheMisses.Load(); h+m != n {
				t.Errorf("cached server: hits %d + misses %d != cacheable requests %d", h, m, n)
			}
			if m, dec := ma.CacheMisses.Load(), ma.Decompressions.Load(); m != dec || ma.SliceDecodes.Load() != 0 {
				t.Errorf("cached server: %d misses, %d decompressions, %d slice decodes; want misses = decompressions, no slice decodes",
					m, dec, ma.SliceDecodes.Load())
			}
			if !lc.opts.Progressive && mn.PartialDecodes.Load()+ma.PartialDecodes.Load() != 0 {
				t.Error("slice-major container counted partial decodes")
			}
			if lc.opts.Progressive && (mn.PartialDecodes.Load() == 0 || ma.PartialDecodes.Load() == 0) {
				t.Error("progressive container served coarse requests without a partial decode")
			}
		})
	}
}

// FuzzHandlers drives every dataset route with arbitrary parameter
// values over small progressive and slice-major containers at both
// precisions and one container with a gap, on a server without a cache
// and one with. It calls the handlers directly: behind a listener,
// net/http would recover a panic and only drop the connection. Every
// answer must be 200, 400, 404 or 410, both servers must answer alike,
// and a 200 raw body must hold 4 bytes per X-STW-Dims sample.
func FuzzHandlers(f *testing.F) {
	d := grid.Dims{Nx: 10, Ny: 9, Nz: 9}
	none, all := New(Config{}), New(Config{CacheBytes: 1 << 20})
	var names []string
	mount := func(name, path string) {
		for _, s := range []*Server{none, all} {
			if err := s.Mount(name, path); err != nil {
				f.Fatal(err)
			}
		}
		names = append(names, name)
	}
	for _, lc := range layoutCases() {
		mount(lc.name, writeContainer(f, d, 6, lc.opts, func(ts int) float64 { return float64(ts) }))
	}
	mount("gaps", buildGapContainer(f, d, "wgw"))
	f.Cleanup(func() {
		none.Close()
		all.Close()
	})
	hNone, hAll := none.Handler(), all.Handler()
	routes := []string{"slice", "crop", "preview", "render", "window/%d", "window/%d/levels"}

	f.Add(uint8(1), uint8(0), 0, "0", "", "1", "0", "0", "9223372036854775807", "1", "1", "", "", "", "")
	f.Add(uint8(0), uint8(0), 0, "4", "0", "", "", "", "", "", "", "", "", "", "json")
	f.Add(uint8(2), uint8(3), 0, "5", "2", "", "", "", "", "", "", "", "", "", "")
	f.Add(uint8(3), uint8(1), 0, "2", "", "", "", "", "", "", "", "mip", "x", "", "ppm")
	f.Add(uint8(3), uint8(2), 0, "2", "", "", "", "", "", "", "", "slice", "", "-1", "")
	f.Add(uint8(0), uint8(4), 0, "5", "", "", "", "", "", "", "", "", "", "", "")
	f.Add(uint8(4), uint8(0), 1, "", "", "", "", "", "", "", "", "", "", "", "")
	f.Add(uint8(5), uint8(4), 1, "", "", "", "", "", "", "", "", "", "", "", "")
	f.Fuzz(func(t *testing.T, route, ds uint8, win int, tv, levels, x0, y0, z0, nx, ny, nz, kind, axis, z, format string) {
		name := "nosuch"
		if int(ds) < len(names) {
			name = names[ds]
		}
		path := "/v1/" + name + "/" + routes[int(route)%len(routes)]
		if int(route)%len(routes) >= 4 { // the window routes
			path = fmt.Sprintf(path, win)
		}
		q := url.Values{}
		for k, v := range map[string]string{"t": tv, "levels": levels, "x0": x0, "y0": y0, "z0": z0,
			"nx": nx, "ny": ny, "nz": nz, "kind": kind, "axis": axis, "z": z, "format": format} {
			if v != "" {
				q.Set(k, v)
			}
		}
		target := path + "?" + q.Encode()
		rn, ra := serveDirect(hNone, target), serveDirect(hAll, target)
		switch ra.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusGone:
		default:
			t.Fatalf("%s: status %d: %s", target, ra.Code, ra.Body.Bytes())
		}
		if rn.Code != ra.Code || !bytes.Equal(rn.Body.Bytes(), ra.Body.Bytes()) {
			t.Fatalf("%s: uncached answers %d (%d bytes), cached %d (%d bytes)",
				target, rn.Code, rn.Body.Len(), ra.Code, ra.Body.Len())
		}
		dims := ra.Header().Get("X-STW-Dims")
		if ra.Code != http.StatusOK || dims == "" || ra.Header().Get("Content-Type") != "application/octet-stream" {
			return
		}
		var dx, dy, dz int
		if _, err := fmt.Sscanf(dims, "%dx%dx%d", &dx, &dy, &dz); err != nil {
			t.Fatalf("%s: X-STW-Dims %q: %v", target, dims, err)
		}
		if want := 4 * dx * dy * dz; ra.Body.Len() != want {
			t.Fatalf("%s: raw body %d bytes, want %d for %s", target, ra.Body.Len(), want, dims)
		}
	})
}
