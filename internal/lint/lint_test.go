package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// TestRepoIsClean is the dogfooding gate: stlint over the whole module
// must produce zero findings. Every true positive has been fixed and
// every deliberate exception carries a //stlint:ignore with a reason, so
// any finding here is a regression.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short mode")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; expected the whole module", len(pkgs))
	}
	cfg := DefaultConfig()
	// A registration naming no symbol matches nothing, silently: a
	// refactor that renames or deletes a registered function must fail
	// here instead.
	for _, entry := range slices.Concat(cfg.BudgetOwners, cfg.TaintStructs) {
		if !declared(pkgs, entry) {
			t.Errorf("config entry %q names no package-level symbol in the loaded packages", entry)
		}
	}
	var all []Finding
	for _, pkg := range pkgs {
		all = append(all, RunPackage(cfg, pkg, All)...)
	}
	for _, f := range all {
		t.Errorf("%s", f)
	}
	if len(all) > 0 {
		t.Errorf("stlint found %d unsuppressed findings; fix them or annotate with //stlint:ignore <analyzer> <reason>", len(all))
	}
}

// declared reports whether a package whose path ends in entry's
// path-suffix declares entry's name ("path-suffix.Name") at package level.
func declared(pkgs []*Package, entry string) bool {
	dot := strings.LastIndex(entry, ".")
	if dot < 0 {
		return false
	}
	for _, p := range pkgs {
		if strings.HasSuffix(p.Types.Path(), entry[:dot]) && p.Types.Scope().Lookup(entry[dot+1:]) != nil {
			return true
		}
	}
	return false
}

// parseSynthetic builds a Package (syntax and fileset only — enough for
// the suppression machinery) from source text.
func parseSynthetic(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "synthetic.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing synthetic source: %v", err)
	}
	return &Package{Fset: fset, Files: []*ast.File{f}}
}

func findingAt(pkg *Package, line int, analyzer, msg string) Finding {
	return Finding{
		Pos:      token.Position{Filename: "synthetic.go", Line: line},
		Analyzer: analyzer,
		Message:  msg,
	}
}

func TestSuppressionDirectives(t *testing.T) {
	src := `package p

func a() {} //stlint:ignore floateq exact comparison is the contract here

//stlint:ignore uncheckederr,deferclose best-effort cleanup on exit
func b() {}

//stlint:ignore all this line is exempt from everything
func c() {}

//stlint:ignore floateq
func malformedNoReason() {}

//stlint:ignore
func malformedEmpty() {}
`
	pkg := parseSynthetic(t, src)

	cases := []struct {
		name       string
		finding    Finding
		suppressed bool
	}{
		{"same line", findingAt(pkg, 3, "floateq", "x"), true},
		{"same line wrong analyzer", findingAt(pkg, 3, "trunccast", "x"), false},
		{"next line first name", findingAt(pkg, 6, "uncheckederr", "x"), true},
		{"next line second name", findingAt(pkg, 6, "deferclose", "x"), true},
		{"next line unlisted name", findingAt(pkg, 6, "lockval", "x"), false},
		{"all keyword", findingAt(pkg, 9, "trunccast", "x"), true},
		{"two lines below directive", findingAt(pkg, 7, "uncheckederr", "x"), false},
		{"malformed directive suppresses nothing", findingAt(pkg, 12, "floateq", "x"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := applySuppressions(pkg, []Finding{tc.finding}, nil)
			kept := false
			for _, f := range out {
				if f.Analyzer == tc.finding.Analyzer && f.Pos.Line == tc.finding.Pos.Line {
					kept = true
				}
			}
			if kept == tc.suppressed {
				t.Errorf("finding %v: suppressed=%v, want %v", tc.finding, !kept, tc.suppressed)
			}
		})
	}
}

func TestMalformedDirectivesAreReported(t *testing.T) {
	src := `package p

//stlint:ignore floateq
func noReason() {}

//stlint:ignore
func empty() {}
`
	pkg := parseSynthetic(t, src)
	out := applySuppressions(pkg, nil, nil)
	if len(out) != 2 {
		t.Fatalf("got %d findings for 2 malformed directives: %v", len(out), out)
	}
	for _, f := range out {
		if f.Analyzer != "stlint" {
			t.Errorf("malformed directive reported under %q, want stlint", f.Analyzer)
		}
		if !strings.Contains(f.Message, "malformed stlint:ignore") {
			t.Errorf("unexpected message %q", f.Message)
		}
	}
}

func TestStaleDirectivesAreReported(t *testing.T) {
	src := `package p

func a() {} //stlint:ignore floateq exact comparison is the contract here

func b() {} //stlint:ignore trunccast narrowing is deliberate

func c() {} //stlint:ignore lockval copies a guard
`
	pkg := parseSynthetic(t, src)
	ran := map[string]bool{"floateq": true, "trunccast": true}
	live := findingAt(pkg, 3, "floateq", "x")
	out := applySuppressions(pkg, []Finding{live}, ran)
	// The floateq directive matched a finding; trunccast ran and matched
	// nothing (stale); lockval did not run, so its silence proves nothing.
	if len(out) != 1 {
		t.Fatalf("got %d findings, want exactly the stale trunccast report: %v", len(out), out)
	}
	f := out[0]
	if f.Analyzer != "stlint" || f.Pos.Line != 5 || !strings.Contains(f.Message, "stale stlint:ignore") || !strings.Contains(f.Message, "trunccast") {
		t.Errorf("unexpected stale report: %v", f)
	}
}

func TestStaleAllDirectiveNeedsFullRoster(t *testing.T) {
	src := `package p

func a() {} //stlint:ignore all this line is exempt from everything
`
	pkg := parseSynthetic(t, src)

	partial := map[string]bool{"floateq": true}
	if out := applySuppressions(pkg, nil, partial); len(out) != 0 {
		t.Errorf("partial run audited an %q directive: %v", "all", out)
	}

	full := map[string]bool{}
	for _, a := range All {
		full[a.Name] = true
	}
	out := applySuppressions(pkg, nil, full)
	if len(out) != 1 || !strings.Contains(out[0].Message, "stale stlint:ignore") {
		t.Errorf("full run did not report the unused %q directive: %v", "all", out)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:      token.Position{Filename: "internal/core/record.go", Line: 42, Column: 7},
		Analyzer: "trunccast",
		Message:  "uint32(n) narrows int",
	}
	if got, want := f.String(), "internal/core/record.go:42: [trunccast] uint32(n) narrows int"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}
