// Package lint implements stlint, a domain-aware static-analysis suite
// for this repository. The paper's accuracy and storage claims rest on
// bit-level invariants — lossless coefficient round-trips, checksum-framed
// container records, exact index arithmetic across windows — and this
// package encodes the bug classes that historically break them as
// compile-time checks:
//
//   - uncheckederr: error results from storage/fault-injection/OS/binary
//     I/O call sites that are discarded or overwritten unread
//   - floateq: ==/!= on floating-point operands (coefficient thresholding
//     must use math.Float64bits or an epsilon helper)
//   - trunccast: unguarded narrowing integer conversions in encode/record
//     paths, the bug class that corrupts container frames
//   - lockval: sync.Mutex/RWMutex copied by value, including copies
//     through channel sends, map stores, and range clauses that go vet's
//     copylocks pass does not model
//   - deferclose: opened files and containers whose Close is neither
//     deferred nor otherwise reachable
//   - exporteddoc: exported identifiers (and packages) in the documented
//     API surface — the observability, serving, and storage layers —
//     lacking doc comments
//
// The driver is built entirely on the standard library's go/parser and
// go/types (no golang.org/x/tools), matching the module's empty
// dependency set. Findings are suppressed line-by-line with
//
//	//stlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// where the reason is mandatory: an unexplained suppression is itself
// reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the short identifier used in findings and in
	// //stlint:ignore directives.
	Name string
	// Doc is a one-line description of what the analyzer proves.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// All is the analyzer roster, in reporting order.
var All = []*Analyzer{
	UncheckedErr,
	FloatEq,
	TruncCast,
	LockVal,
	DeferClose,
	ExportedDoc,
	TaintLen,
	ScratchPool,
	CtxFlow,
	BudgetOwner,
}

// Config tunes the suite to the repository being analyzed.
type Config struct {
	// TruncScope limits the trunccast analyzer to packages whose import
	// path contains one of these substrings — the encode/record paths
	// where a silent narrowing corrupts on-disk frames. Empty means all
	// packages.
	TruncScope []string
	// DocScope limits the exporteddoc analyzer to packages whose import
	// path contains one of these substrings — the operator-facing API
	// surface where undocumented exports are documentation bugs. Unlike
	// TruncScope, an empty DocScope checks nothing: the doc bar is
	// opt-in per package tree.
	DocScope []string
	// TaintScope limits the taintlen analyzer to packages whose import
	// path contains one of these substrings — the decode paths that
	// parse attacker-shaped bytes. Empty means all packages.
	TaintScope []string
	// TaintReaders names bit-reader types (bare type names) whose Read*
	// methods yield untrusted integers for taintlen, outside the
	// reader's own methods.
	TaintReaders []string
	// TaintStructs names decoded-header struct types, as import-path
	// suffixes like "internal/entropy.Block", whose integer fields are
	// untrusted for taintlen unless the struct was constructed locally.
	TaintStructs []string
	// CtxScope limits the ctxflow analyzer to library packages where
	// minting a fresh context.Background()/TODO() severs cancellation.
	// Empty checks nothing (opt-in, like DocScope): binaries and tests
	// legitimately create root contexts.
	CtxScope []string
	// BudgetScope limits the budgetowner analyzer to pipeline packages
	// governed by DESIGN §6's single-owner worker-budget rule. Empty
	// checks nothing (opt-in).
	BudgetScope []string
	// BudgetOwners lists the functions allowed to resolve a worker
	// budget (call par.Workers / runtime.NumCPU / runtime.GOMAXPROCS)
	// inside BudgetScope, as "path-suffix.FuncName" entries like
	// "internal/core.CompressWindowCtx".
	BudgetOwners []string
}

// DefaultConfig scopes the suite to this repository's pipeline layout.
func DefaultConfig() Config {
	return Config{
		TruncScope: []string{
			"internal/core",
			"internal/coder",
			"internal/storage",
			"internal/compress",
			"internal/faultio",
			"internal/codec",
			"internal/entropy",
			"cmd/stcomp",
		},
		DocScope: []string{
			"internal/obs",
			"internal/server",
			"internal/storage",
		},
		TaintScope: []string{
			"internal/storage",
			"internal/core",
			"internal/codec",
			"internal/entropy",
			"internal/compress",
		},
		TaintReaders: []string{"BitReader"},
		TaintStructs: []string{"internal/entropy.Block", "internal/core.LevelExtent"},
		CtxScope: []string{
			"internal/core",
			"internal/transform",
			"internal/server",
			"internal/ingest",
			"internal/codec",
			"internal/entropy",
		},
		BudgetScope: []string{
			"internal/transform",
			"internal/core",
			"internal/compress",
			"internal/codec",
			"internal/entropy",
			"internal/wavelet",
			"internal/ingest",
			"internal/server",
		},
		BudgetOwners: []string{
			// The precision-generic bodies are the shared entry points
			// behind both the float64 and float32 wrappers (CompressWindowCtx,
			// CompressWindow32Ctx, ...): each resolves the budget exactly once
			// per call and hands shares down, so they are the owners now.
			"internal/core.compressWindowOf",
			// The in-place ingest entry points are compressWindowOf
			// without the working copy.
			"internal/core.CompressWindowInPlaceOf",
			"internal/core.RecompressCoefficientsOf",
			// The one decode body: every reconstruction query (full,
			// levels=K, one slice) at either precision.
			"internal/core.Reconstruct",
			"internal/transform.Workers",
			// Server construction owns its resource envelope: the
			// decompress semaphore is sized once, not per request.
			"internal/server.DefaultConfig",
			"internal/server.New",
		},
	}
}

// A Finding is one diagnostic at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the finding as "file:line: [name] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Config    Config

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Findings runs the full analyzer roster over one package.
func (p *Package) Findings(cfg Config) []Finding {
	return RunPackage(cfg, p, All)
}

// RunPackage applies every analyzer in analyzers to one loaded package and
// returns the surviving findings: suppressed lines are dropped, malformed
// suppressions are reported, and the result is sorted by position.
func RunPackage(cfg Config, pkg *Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Config:    cfg,
			findings:  &findings,
		}
		a.Run(pass)
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	findings = applySuppressions(pkg, findings, ran)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// ignoreDirective is one parsed //stlint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool
	malformed string // non-empty description when the directive is unusable
}

const ignorePrefix = "stlint:ignore"

// parseIgnores extracts every stlint:ignore directive from a file,
// keyed by the line(s) it suppresses: the directive's own line and the
// line immediately after it (so a directive may sit on the offending
// line or alone on the line above).
func parseIgnores(fset *token.FileSet, file *ast.File) map[string][]*ignoreDirective {
	byLine := map[string][]*ignoreDirective{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//"+ignorePrefix)
			if !ok {
				continue
			}
			d := &ignoreDirective{pos: fset.Position(c.Pos()), analyzers: map[string]bool{}}
			fields := strings.Fields(text)
			switch {
			case len(fields) == 0:
				d.malformed = "missing analyzer name and reason"
			case len(fields) == 1:
				d.malformed = fmt.Sprintf("suppressing %q without a reason", fields[0])
			default:
				for _, name := range strings.Split(fields[0], ",") {
					d.analyzers[name] = true
				}
			}
			for _, line := range []int{d.pos.Line, d.pos.Line + 1} {
				key := lineKey(d.pos.Filename, line)
				byLine[key] = append(byLine[key], d)
			}
		}
	}
	return byLine
}

func lineKey(filename string, line int) string {
	return fmt.Sprintf("%s:%d", filename, line)
}

// applySuppressions drops findings covered by a well-formed ignore
// directive for their analyzer, reports malformed directives, and —
// when the directive's analyzers all ran — reports directives that
// suppressed nothing. Stale directives are debt: they read as "this
// line is exempt for a reason" when the finding they justified is long
// gone, and they silently mask future findings of the same analyzer on
// that line. ran is the set of analyzer names that actually executed;
// directives naming any analyzer that did not run (including "all"
// unless the full roster ran) are exempt from the staleness check, so a
// partial run never misreports.
func applySuppressions(pkg *Package, findings []Finding, ran map[string]bool) []Finding {
	byLine := map[string][]*ignoreDirective{}
	var ordered []*ignoreDirective
	seen := map[*ignoreDirective]bool{}
	for _, f := range pkg.Files {
		for key, ds := range parseIgnores(pkg.Fset, f) {
			byLine[key] = append(byLine[key], ds...)
			for _, d := range ds {
				if !seen[d] {
					seen[d] = true
					ordered = append(ordered, d)
				}
			}
		}
	}
	matched := map[*ignoreDirective]bool{}
	out := findings[:0]
	for _, f := range findings {
		suppressed := false
		for _, d := range byLine[lineKey(f.Pos.Filename, f.Pos.Line)] {
			if d.analyzers[f.Analyzer] || d.analyzers["all"] {
				matched[d] = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	allRan := true
	for _, a := range All {
		if !ran[a.Name] {
			allRan = false
		}
	}
	for _, d := range ordered {
		switch {
		case d.malformed != "":
			out = append(out, Finding{
				Pos:      d.pos,
				Analyzer: "stlint",
				Message:  "malformed stlint:ignore directive: " + d.malformed,
			})
		case !matched[d] && auditable(d, ran, allRan):
			names := make([]string, 0, len(d.analyzers))
			for name := range d.analyzers {
				names = append(names, name)
			}
			sort.Strings(names)
			out = append(out, Finding{
				Pos:      d.pos,
				Analyzer: "stlint",
				Message:  fmt.Sprintf("stale stlint:ignore directive: no %s finding left to suppress here", strings.Join(names, ",")),
			})
		}
	}
	return out
}

// auditable reports whether every analyzer a directive names actually
// executed, making "it matched nothing" meaningful.
func auditable(d *ignoreDirective, ran map[string]bool, allRan bool) bool {
	for name := range d.analyzers {
		if name == "all" {
			if !allRan {
				return false
			}
			continue
		}
		if !ran[name] {
			return false
		}
	}
	return true
}

// --- shared type helpers used by several analyzers ---

// isErrorType reports whether t is the built-in error interface (or an
// alias of it).
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// calleeFunc resolves the *types.Func a call expression invokes, looking
// through parentheses. It returns nil for calls of function values,
// conversions, and built-ins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcPackagePath returns the import path of the package a function (or
// method) is declared in, or "" for builtins.
func funcPackagePath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// errorResultIndex returns the index of the first error-typed result of a
// call's callee signature, or -1. A signature with no results, or whose
// results contain no error, yields -1.
func errorResultIndex(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return -1
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return -1
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return i
		}
	}
	return -1
}
