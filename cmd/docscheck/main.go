// Command docscheck is the docs-drift greplint: it cross-checks every
// command-line flag the operator docs mention against the flags the
// binaries actually declare.
//
// It parses cmd/*/ sources for flag registrations (flag.String,
// fs.Bool, flag.IntVar, ...) and scans the operator-facing markdown for
// invocation lines naming a binary. A documented flag that no longer
// exists in its binary is a failure with a file:line pointer — the class
// of drift where a README teaches a flag a refactor renamed or removed.
// Flags a binary declares but no scanned document mentions are listed as
// warnings, so undocumented surface is visible without blocking merges.
//
// Usage:
//
//	docscheck [-root DIR]
//
// Exit status 1 on any stale documented flag.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// docFiles are the operator-facing documents scanned for invocations.
// ISSUE/CHANGES history files are deliberately excluded: they describe
// past states of the tree and may legitimately mention retired flags.
// So is ROADMAP.md, which names flags open items have yet to add.
var docFiles = []string{
	"README.md",
	"OPERATIONS.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	filepath.Join("examples", "README.md"),
}

// flagDecls are the flag-package registration methods whose first string
// literal argument is the flag name (the *Var forms take the name second;
// both cases reduce to "first string literal argument").
var flagDecls = map[string]bool{
	"Bool": true, "BoolVar": true,
	"Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true,
	"Uint": true, "UintVar": true,
	"Uint64": true, "Uint64Var": true,
	"Float64": true, "Float64Var": true,
	"String": true, "StringVar": true,
	"Duration": true, "DurationVar": true,
}

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	declared, err := declaredFlags(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	if len(declared) == 0 {
		fmt.Fprintln(os.Stderr, "docscheck: no flag declarations found under cmd/; wrong -root?")
		os.Exit(1)
	}

	stale, mentioned, err := scanDocs(*root, declared)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}

	for _, s := range stale {
		fmt.Fprintln(os.Stderr, s)
	}
	warnUndocumented(declared, mentioned)
	if len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d documented flag(s) do not exist in their binaries\n", len(stale))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d binaries, %d documented flag mentions verified\n", len(declared), countMentions(mentioned))
}

// declaredFlags parses every Go file under root/cmd and returns, per
// binary (directory name), the set of flag names it registers.
func declaredFlags(root string) (map[string]map[string]bool, error) {
	cmdDir := filepath.Join(root, "cmd")
	entries, err := os.ReadDir(cmdDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	out := make(map[string]map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		bin := e.Name()
		files, err := filepath.Glob(filepath.Join(cmdDir, bin, "*.go"))
		if err != nil {
			return nil, err
		}
		set := make(map[string]bool)
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !flagDecls[sel.Sel.Name] {
					return true
				}
				// The flag name is the first string literal argument in
				// both the value-returning and the *Var registration forms.
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil {
							set[name] = true
						}
						break
					}
				}
				return true
			})
		}
		if len(set) > 0 {
			out[bin] = set
		}
	}
	return out, nil
}

var flagToken = regexp.MustCompile(`(^|[\s"` + "`" + `(\[])-([a-z][a-z0-9-]*)`)

// scanDocs walks the operator docs line by line, merging backslash
// continuations, and checks every -flag token on a line that names a
// binary against that binary's declared set. It returns the stale
// findings and the per-binary set of flags the docs mention.
func scanDocs(root string, declared map[string]map[string]bool) (stale []string, mentioned map[string]map[string]bool, err error) {
	mentioned = make(map[string]map[string]bool)
	for bin := range declared {
		mentioned[bin] = make(map[string]bool)
	}
	for _, rel := range docFiles {
		path := filepath.Join(root, rel)
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, nil, err
		}
		lines := strings.Split(string(data), "\n")
		for i := 0; i < len(lines); i++ {
			lineNo := i + 1
			logical := lines[i]
			// Usage examples wrap with trailing backslashes; the flags on
			// continuation lines belong to the command on the first line.
			for strings.HasSuffix(strings.TrimRight(logical, " \t"), `\`) && i+1 < len(lines) {
				i++
				logical = strings.TrimRight(strings.TrimRight(logical, " \t"), `\`) + " " + lines[i]
			}
			// Attribute each flag token to the nearest binary named
			// earlier on the line, so "stcomp ... -ratio" and prose like
			// "stserve's -cache-mb" both resolve; a flag with no binary
			// before it is skipped rather than guessed.
			type binAt struct {
				name string
				pos  int
			}
			var bins []binAt
			for name := range declared {
				re := regexp.MustCompile(`\b` + name + `\b`)
				for _, loc := range re.FindAllStringIndex(logical, -1) {
					bins = append(bins, binAt{name, loc[0]})
				}
			}
			if len(bins) == 0 {
				continue
			}
			sort.Slice(bins, func(a, b int) bool { return bins[a].pos < bins[b].pos })
			for _, m := range flagToken.FindAllStringSubmatchIndex(logical, -1) {
				name := logical[m[4]:m[5]]
				bin := ""
				for _, b := range bins {
					if b.pos < m[4] {
						bin = b.name
					}
				}
				if bin == "" {
					continue
				}
				if declared[bin][name] {
					mentioned[bin][name] = true
					continue
				}
				stale = append(stale, fmt.Sprintf("%s:%d: %s does not declare flag -%s", rel, lineNo, bin, name))
			}
		}
	}
	sort.Strings(stale)
	return stale, mentioned, nil
}

// warnUndocumented lists declared flags no scanned document mentions —
// advisory output, not a failure, so adding a flag does not block on
// prose but the gap stays visible.
func warnUndocumented(declared, mentioned map[string]map[string]bool) {
	var bins []string
	for bin := range declared {
		bins = append(bins, bin)
	}
	sort.Strings(bins)
	for _, bin := range bins {
		var missing []string
		for name := range declared[bin] {
			if !mentioned[bin][name] {
				missing = append(missing, "-"+name)
			}
		}
		if len(missing) == 0 {
			continue
		}
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "docscheck: warning: %s flags not mentioned in docs: %s\n", bin, strings.Join(missing, " "))
	}
}

func countMentions(mentioned map[string]map[string]bool) int {
	n := 0
	for _, set := range mentioned {
		n += len(set)
	}
	return n
}
