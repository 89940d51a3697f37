package main

import (
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

const reachSrc = `package p

func Generic[T any](x T) T { return x }

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

func (b Box[T]) Peek() T { return b.v }

func helper() int { return 1 }

func Outer() func() int {
	return func() int { return helper() }
}

func init() {}

func Dead() {
	_ = 1
}

func Oracle() {}
`

// reachNm is a go tool nm listing: text symbols (T, t) count; data (R)
// and undefined (U) symbols do not.
const reachNm = `
  4a0000 T m/internal/p.Generic[go.shape.int]
  4a0100 T m/internal/p.(*Box[go.shape.struct { X []int }]).Get
  4a0180 T m/internal/p.Box[go.shape.string].Peek
  4a0200 T m/internal/p.Outer
  4a0280 T m/internal/p.Outer.func1
  4a0300 t m/internal/p.helper
  4a0380 T m/internal/p.Dead.func1
  4a0400 R m/internal/p..dict.Dead
         U m/internal/p.Dead
  4a0500 T main.(*server).run
  4a0580 T main.main
`

func TestReachMatcher(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", reachSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := funcsOf(fset, f, "m/internal/p")
	linked := make(map[string]bool)
	linkedKeys("m/cmd/tool", []byte(reachNm), linked)

	for _, c := range []struct {
		key    string
		linked bool
	}{
		{"m/internal/p.Generic", true},     // generic instantiation
		{"m/internal/p.Box.Get", true},     // method on a generic pointer receiver
		{"m/internal/p.Box.Peek", true},    // method on a generic value receiver
		{"m/internal/p.helper", true},      // called only from a closure
		{"m/internal/p.Outer", true},       // the closure's parent
		{"m/internal/p.Dead", false},       // only its closure, a data and an undefined symbol
		{"m/internal/p.Oracle", false},     // no symbol
		{"m/cmd/tool.server.run", true},    // main package method
		{"m/cmd/tool.main", true},          // main
		{"m/cmd/other.main", false},        // main symbols belong to the binary's package
		{"m/internal/p.Outer.func1", true}, // closures keep their suffix
	} {
		if linked[c.key] != c.linked {
			t.Errorf("linked[%s] = %v, want %v", c.key, linked[c.key], c.linked)
		}
	}

	r := reach(funcs, linked, map[string]string{
		"m/internal/p.Oracle":  "test oracle",
		"m/internal/p.Generic": "now linked",
		"m/internal/p.Box":     "covers linked methods",
		"m/internal/p.Gone":    "names no function",
	})
	want := []string{
		"docscheck: allow-list entry m/internal/p.Box is stale: it covers a linked function or none",
		"docscheck: allow-list entry m/internal/p.Generic is stale: it covers a linked function or none",
		"docscheck: allow-list entry m/internal/p.Gone is stale: it covers a linked function or none",
		"p.go:19: m/internal/p.Dead is linked by no binary",
	}
	if !reflect.DeepEqual(r.findings, want) {
		t.Errorf("findings:\n%q\nwant\n%q", r.findings, want)
	}
	// Generic, Get, Peek, helper: 1 line each; Outer: 3; Dead: 3; Oracle: 1.
	// init is not counted.
	if r.linked != 7 || r.unlinked != 3 || r.allowed != 1 {
		t.Errorf("lines linked/unlinked/allowed = %d/%d/%d, want 7/3/1", r.linked, r.unlinked, r.allowed)
	}
}
