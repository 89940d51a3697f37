package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ScratchPool is the dataflow analyzer for scratch-arena discipline:
// every buffer taken from internal/scratch (Floats, Uint64s, Ints) must be
// returned (PutFloats, PutUint64s, PutInts) on every path that reaches the
// function's exit — including early error returns — or have its
// ownership visibly handed off (stored into a struct, returned, sent on
// a channel, passed straight into a constructor). It also flags uses of
// a buffer after it was returned to the pool and double returns.
//
// Ownership model, tuned to this repository's conventions:
//
//   - buf := scratch.Floats(n) starts tracking; scratch.Floats(n) passed
//     directly as a call argument or stored into a field hands the
//     buffer off immediately and is not tracked (the callee/holder now
//     owns the Put, as in ingest's window recycling)
//   - passing a tracked buffer to a function call is NOT an escape: the
//     dominant pattern is lending workspace to a kernel and putting it
//     afterwards; likewise capture by a closure (par.For bodies)
//   - b2 := buf renames ownership (Put either, not both); buf = buf[:n]
//     keeps it; view := buf[:n] is a borrow (the original still owes the
//     Put); returning/sending/storing buf or a view of it escapes it
//   - defer scratch.PutFloats(buf) — directly or via a closure —
//     discharges the obligation on every path, including panics
//   - paths that end in panic/log.Fatal are exempt: the pool is a
//     cache, dropping a buffer on a crash path leaks nothing
//
// Put of an untracked slice is always allowed — the arena documents that
// returning foreign buffers is safe.
var ScratchPool = &Analyzer{
	Name: "scratchpool",
	Doc:  "scratch arena buffers must be returned to the pool on every exit path, never used after return",
	Run:  runScratchPool,
}

const (
	pLive     uint8 = 1 << iota // taken from the pool, not yet returned
	pReleased                   // returned to the pool
	pDeferred                   // a deferred Put will return it at exit
	pEscaped                    // ownership visibly handed off
)

func runScratchPool(pass *Pass) {
	eachFuncBody(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		f := &poolFlow{
			pass:   pass,
			getPos: map[string]token.Pos{},
			name:   map[string]string{},
		}
		g := buildCFG(body, pass.TypesInfo)
		if g.unstructured {
			return
		}
		exit := solveForward(g, f.transfer)
		for k, v := range exit {
			if v&pLive != 0 && v&(pDeferred|pEscaped) == 0 {
				pos, ok := f.getPos[k]
				if !ok {
					continue
				}
				f.pass.Reportf(pos, "scratch buffer %q is not returned to the pool on every path (missing scratch.Put… or defer)", f.name[k])
			}
		}
	})
}

type poolFlow struct {
	pass   *Pass
	getPos map[string]token.Pos // key → position of the Get, for leak findings
	name   map[string]string    // key → source name, for messages
}

func (f *poolFlow) transfer(n ast.Node, st absState, report bool) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		f.assign(s, st, report)
	case *ast.DeclStmt:
		f.declStmt(s, st, report)
	case *ast.DeferStmt:
		f.deferred(s, st, report)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			f.escape(r, st)
		}
		f.scan(s, st, report)
	case *ast.SendStmt:
		f.escape(s.Value, st)
		f.scan(s, st, report)
	default:
		f.scan(n, st, report)
	}
}

func (f *poolFlow) declStmt(s *ast.DeclStmt, st absState, report bool) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != len(vs.Names) {
			continue
		}
		for i, name := range vs.Names {
			f.bindOne(name, vs.Values[i], st, report)
		}
	}
}

func (f *poolFlow) assign(s *ast.AssignStmt, st absState, report bool) {
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 && (s.Tok == token.ASSIGN || s.Tok == token.DEFINE) {
		f.bindOne(s.Lhs[0], s.Rhs[0], st, report)
		return
	}
	f.scan(s, st, report)
}

// bindOne handles one lhs = rhs pair: Get tracking, rename, reslice, and
// field-store escapes.
func (f *poolFlow) bindOne(lhs, rhs ast.Expr, st absState, report bool) {
	info := f.pass.TypesInfo
	// Only a bare identifier can take over ownership; a store into a
	// field or element is a handoff (escape) instead.
	lk := ""
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		lk = flowKey(info, id)
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && f.isGet(call) {
		for _, a := range call.Args {
			f.scan(a, st, report)
		}
		if lk != "" {
			killDerived(st, lk)
			st[lk] = pLive
			f.getPos[lk] = call.Pos()
			f.name[lk] = types.ExprString(lhs)
		}
		// Non-ident destination: the holder owns the Put now.
		return
	}
	if rk := identKey(info, rhs); rk != "" && st[rk]&pLive != 0 {
		if lk == rk {
			return
		}
		if lk != "" { // rename: ownership moves to the new name
			killDerived(st, lk)
			st[lk] = st[rk]
			f.getPos[lk] = f.getPos[rk]
			f.name[lk] = types.ExprString(lhs)
			st[rk] = pEscaped
			return
		}
		st[rk] = pEscaped // stored into a field/element: handed off
		f.scan(lhs, st, report)
		return
	}
	if lk != "" && lk == viewKey(info, rhs) && st[lk]&pLive != 0 {
		return // buf = buf[:n] keeps ownership
	}
	f.scan(rhs, st, report)
	f.scan(lhs, st, report)
	// Overwriting a variable that still holds a live buffer loses the
	// only reference; the live bit stays set so the exit check reports
	// the leak at the Get.
}

// deferred handles defer statements: a direct Put, or a closure that
// puts, discharges the obligation for the keys it returns.
func (f *poolFlow) deferred(s *ast.DeferStmt, st absState, report bool) {
	if f.isPut(s.Call) {
		for _, a := range s.Call.Args {
			k := viewKey(f.pass.TypesInfo, a)
			if k == "" {
				continue
			}
			if report && st[k]&pDeferred != 0 {
				f.pass.Reportf(s.Call.Pos(), "scratch buffer %q already has a deferred return to the pool", types.ExprString(a))
			}
			st[k] |= pDeferred
		}
		return
	}
	if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok && f.isPut(call) {
				for _, a := range call.Args {
					if k := viewKey(f.pass.TypesInfo, a); k != "" {
						st[k] |= pDeferred
					}
				}
			}
			return true
		})
		return
	}
	f.scan(s, st, report)
}

// scan walks a node looking for Put calls, composite-literal escapes,
// and uses of already-returned buffers. It does not descend into
// function literals (separate flow units).
func (f *poolFlow) scan(n ast.Node, st absState, report bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if f.isPut(x) {
				f.put(x, st, report)
				return false
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				f.escape(v, st)
			}
		case *ast.Ident:
			f.mention(x, st, report)
		}
		return true
	})
}

// put applies Put semantics to a direct (non-deferred) call.
func (f *poolFlow) put(call *ast.CallExpr, st absState, report bool) {
	for _, a := range call.Args {
		f.scan(a, st, false) // sizes/indexes inside the arg, minus the mention itself
		k := viewKey(f.pass.TypesInfo, a)
		if k == "" {
			continue
		}
		v, tracked := st[k]
		if !tracked {
			continue // foreign buffer: documented as safe to Put
		}
		if report {
			switch {
			case v&pDeferred != 0:
				f.pass.Reportf(call.Pos(), "scratch buffer %q is returned to the pool here and again by a deferred Put (double put)", types.ExprString(a))
			case v&pReleased != 0 && v&pLive == 0:
				f.pass.Reportf(call.Pos(), "scratch buffer %q is returned to the pool twice (double put)", types.ExprString(a))
			}
		}
		st[k] = (v &^ pLive) | pReleased
	}
}

// escape marks e's root buffer (through slicing views) as handed off.
func (f *poolFlow) escape(e ast.Expr, st absState) {
	if k := viewKey(f.pass.TypesInfo, e); k != "" && st[k]&pLive != 0 {
		st[k] = pEscaped
	}
}

// mention flags a read of a buffer that was already returned to the pool
// on every path reaching this point.
func (f *poolFlow) mention(id *ast.Ident, st absState, report bool) {
	if !report {
		return
	}
	k := flowKey(f.pass.TypesInfo, id)
	if k == "" {
		return
	}
	v, tracked := st[k]
	if tracked && v&pReleased != 0 && v&(pLive|pDeferred) == 0 {
		f.pass.Reportf(id.Pos(), "scratch buffer %q is used after being returned to the pool", id.Name)
	}
}

// identKey returns the flow key of a bare identifier or selector chain
// (no slicing), or "".
func identKey(info *types.Info, e ast.Expr) string {
	switch inner := ast.Unparen(e).(type) {
	case *ast.Ident:
		return flowKey(info, inner)
	case *ast.SelectorExpr:
		return flowKey(info, inner)
	}
	return ""
}

// viewKey resolves e through any number of slice expressions to the key
// of the buffer it views, or "".
func viewKey(info *types.Info, e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		default:
			return identKey(info, e)
		}
	}
}

func (f *poolFlow) isGet(call *ast.CallExpr) bool {
	return scratchCallee(f.pass.TypesInfo, call, "Floats", "Uint64s", "Ints")
}

func (f *poolFlow) isPut(call *ast.CallExpr) bool {
	return scratchCallee(f.pass.TypesInfo, call, "PutFloats", "PutUint64s", "PutInts")
}

func scratchCallee(info *types.Info, call *ast.CallExpr, names ...string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || !strings.HasSuffix(funcPackagePath(fn), "internal/scratch") {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
