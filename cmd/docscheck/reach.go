package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// reachAllow maps test support no binary links to the reason. A key covers
// the keys it prefixes up to a dot, and must cover only unlinked ones.
var reachAllow = map[string]string{
	"stwave/internal/faultio":                                 "fault-injection file wrapper driven by the storage and ingest crash tests",
	"stwave/internal/experiments.TestScale":                   "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/experiments.AblationResult.StudyRows":    "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/experiments.CompareResult.TechniqueRows": "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/experiments.EntropyResult.Row":           "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/experiments.Fig2Result.Row":              "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/experiments.Fig2cResult.Row":             "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/experiments.Fig3Result.Row":              "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/experiments.FTLEResult.Row":              "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/experiments.Table1Result.Row":            "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/experiments.Table1Result.ProjectedRow":   "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/experiments.Table2Result.Row":            "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/experiments.Table3Result.Row":            "result accessor of the paper-claim tests and bench_test.go",
	"stwave/internal/fbits.Same":                              "bit-identity assertion of the codec, entropy and experiments tests",
	"stwave/internal/grid.Field3DOf.Fill":                     "constant-field fixture of the flow, isosurface, transform and grid tests",
	"stwave/internal/grid.WindowOf.GatherSeries":              "reference temporal pass of the transform tests, and the grid tests",
	"stwave/internal/grid.WindowOf.ScatterSeries":             "reference temporal pass of the transform tests, and the grid tests",
	"stwave/internal/grid.WindowOf.Narrow":                    "float32 fixture of core's pinned TestGoldenWindowBytes",
	"stwave/internal/num.Widen":                               "precision fixture of the codec, compress and ingest tests",
	"stwave/internal/num.Narrow":                              "precision fixture of the codec, compress and ingest tests",
	"stwave/internal/obs.SpanTree":                            "trace-tree visitor of the obs and server tests",
	"stwave/internal/sim/synth.Field.ScalarAt":                "point-wise oracle of the synth and tornado lattice kernels",
	"stwave/internal/sim/synth.Field.VelocityAt":              "point-wise oracle of the synth and tornado lattice kernels",
	"stwave/internal/storage.ContainerReader.GapMarker":       "gap-marker read-back of the storage and ingest gap tests",
}

// fn is one non-test function: pkg.Name or pkg.Type.Name, file:line, size.
type fn struct {
	key, pos string
	lines    int
}

// funcsOf lists the functions of one parsed file of package pkg. Init
// functions are skipped: they run whenever their package is linked.
func funcsOf(fset *token.FileSet, f *ast.File, pkg string) []fn {
	var out []fn
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil {
			name = strings.TrimPrefix(stripBrackets(types.ExprString(fd.Recv.List[0].Type)), "*") + "." + name
		}
		p, e := fset.Position(fd.Pos()), fset.Position(fd.End())
		out = append(out, fn{pkg + "." + name, fmt.Sprintf("%s:%d", p.Filename, p.Line), e.Line - p.Line + 1})
	}
	return out
}

// linkedKeys adds to linked every text symbol of a go tool nm listing of
// main package mainPkg's binary, minus type arguments and receiver stars:
// F[go.shape.int] and (*T[go.shape.int]).M become F and T.M, F.func1 stays.
func linkedKeys(mainPkg string, nm []byte, linked map[string]bool) {
	for _, line := range strings.Split(string(nm), "\n") {
		f := strings.SplitN(strings.TrimSpace(line), " ", 3) // address, type, name
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		sym := strings.NewReplacer("(*", "", ")", "").Replace(stripBrackets(f[2]))
		if rest, ok := strings.CutPrefix(sym, "main."); ok {
			sym = mainPkg + "." + rest
		}
		linked[sym] = true
	}
}

var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// stripBrackets removes every balanced [...] span from s, innermost first.
func stripBrackets(s string) string {
	for t := ""; t != s; {
		t, s = s, typeArgs.ReplaceAllString(s, "")
	}
	return s
}

type reachReport struct { // function lines by outcome, and the failures
	linked, unlinked, allowed int
	findings                  []string
}

// reach sorts every function into linked, allow-listed or unlinked.
func reach(funcs []fn, linked map[string]bool, allow map[string]string) reachReport {
	var r reachReport
	covers := make(map[string]int) // entry -> functions it excuses; -1 once it covers a linked one
	for _, f := range funcs {
		entry := f.key
		for allow[entry] == "" && strings.Contains(entry, ".") {
			entry = entry[:strings.LastIndex(entry, ".")]
		}
		switch {
		case linked[f.key]:
			r.linked += f.lines
			covers[entry] = -1
		case allow[entry] != "":
			r.allowed += f.lines
			if covers[entry] >= 0 {
				covers[entry]++
			}
		default:
			r.unlinked += f.lines
			r.findings = append(r.findings, fmt.Sprintf("%s: %s is linked by no binary", f.pos, f.key))
		}
	}
	for k := range allow {
		if covers[k] <= 0 {
			r.findings = append(r.findings, fmt.Sprintf("docscheck: allow-list entry %s is stale: it covers a linked function or none", k))
		}
	}
	sort.Strings(r.findings)
	return r
}

// checkReach builds every main package with inlining off, so each called
// function keeps a symbol, and matches the functions under internal/ and
// cmd/ against them. Child processes and the temp dir are gone on return.
func checkReach(root string) (reachReport, error) {
	list, err := goCmd(root, "list", "-f", "{{.Module.Path}}\t{{.ImportPath}}\t{{.Name}}{{range .GoFiles}}\t{{.}}{{end}}", "./...")
	if err != nil {
		return reachReport{}, err
	}
	var funcs []fn
	var mains []string
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		f := strings.Split(line, "\t") // module, import path, name, files
		dir := strings.TrimPrefix(f[1], f[0]+"/")
		if f[2] == "main" {
			mains = append(mains, f[1])
		}
		if top, _, _ := strings.Cut(dir, "/"); top != "internal" && top != "cmd" {
			continue
		}
		for _, name := range f[3:] {
			file, err := parser.ParseFile(fset, filepath.Join(root, dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return reachReport{}, err
			}
			funcs = append(funcs, funcsOf(fset, file, f[1])...)
		}
	}
	tmp, err := os.MkdirTemp("", "docscheck-reach-")
	if err != nil {
		return reachReport{}, err
	}
	defer os.RemoveAll(tmp)
	if _, err := goCmd(root, append([]string{"build", "-gcflags=all=-l", "-o", tmp + string(filepath.Separator)}, mains...)...); err != nil {
		return reachReport{}, err
	}
	linked := make(map[string]bool)
	for _, pkg := range mains {
		nm, err := goCmd(root, "tool", "nm", filepath.Join(tmp, path.Base(pkg)))
		if err != nil {
			return reachReport{}, err
		}
		linkedKeys(pkg, nm, linked)
	}
	return reach(funcs, linked, reachAllow), nil
}

// goCmd runs the go command in dir, passing its standard error through,
// and returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	return cmd.Output()
}
