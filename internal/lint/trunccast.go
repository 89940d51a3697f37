package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// TruncCast flags integer conversions in the encode/record paths that can
// silently change the value: narrowing to a smaller width, signed to
// unsigned (a negative wraps to a huge length), and unsigned to signed at
// the same width (a forged length wraps negative). This is the exact bug
// class that corrupts container frames — a record length or slice count
// truncated on encode passes every checksum, because the checksum is
// computed over the already-wrong bytes.
//
// A conversion is accepted when the value is provably in range:
//
//   - a constant that fits the destination type
//   - an operand masked with a constant that fits (x & 0xff)
//   - a relational bounds guard on the same expression earlier in the
//     enclosing function (if n > math.MaxUint32 { ... } before uint32(n))
//
// Float conversions are covered too: float32(x) of a float64 operand
// silently rounds, which on the same encode paths is the widen-then-
// narrow round trip the native float32 pipeline exists to avoid (see
// checkFloatNarrow). So does float32(v) of a type parameter whose type
// set holds float64: generic code rounds in its float64 instantiation.
//
// The analyzer runs only on packages named by Config.TruncScope (the
// encode/record paths); an empty scope means every package.
var TruncCast = &Analyzer{
	Name: "trunccast",
	Doc:  "narrowing integer and float conversions in encode/record paths need a bounds guard or documented contract",
	Run:  runTruncCast,
}

func runTruncCast(pass *Pass) {
	if !truncInScope(pass.Config.TruncScope, pass.Pkg.Path()) {
		return
	}
	for _, file := range pass.Files {
		// Walk per declaration so each conversion knows its enclosing
		// function body — the region searched for bounds guards.
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					checkTruncIn(pass, d.Body, d.Body)
				}
			case *ast.GenDecl:
				checkTruncIn(pass, d, nil)
			}
		}
	}
}

// checkTruncIn reports unguarded narrowing conversions under root;
// guardScope (usually the enclosing function body) is searched for bounds
// guards that precede each conversion. A nil guardScope means no guards
// are reachable (package-level declarations).
func checkTruncIn(pass *Pass, root ast.Node, guardScope ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := pass.TypesInfo.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		dst, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || dst.Info()&(types.IsInteger|types.IsFloat) == 0 {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		atv, ok := pass.TypesInfo.Types[arg]
		if !ok {
			return true
		}
		if tp, ok := atv.Type.(*types.TypeParam); ok {
			if dst.Kind() == types.Float32 && typeSetHas(tp, types.Float64) {
				pass.Reportf(call.Pos(), "float32(%s) rounds when %s is float64; keep the f32 path native, or annotate the one documented rounding",
					types.ExprString(call.Args[0]), tp.Obj().Name())
			}
			return true
		}
		src, ok := atv.Type.Underlying().(*types.Basic)
		if !ok {
			return true
		}
		if dst.Info()&types.IsFloat != 0 {
			checkFloatNarrow(pass, call, dst, src, arg, atv)
			return true
		}
		if src.Info()&types.IsInteger == 0 {
			return true
		}
		reason := truncRisk(dst, src)
		if reason == "" {
			return true
		}
		if atv.Value != nil && constFits(atv.Value, dst) {
			return true
		}
		if maskedInRange(pass.TypesInfo, arg, dst) {
			return true
		}
		// len and cap are non-negative by definition, so converting them to
		// a type at least as wide cannot change the value; only genuine
		// narrowing of a length is worth a guard.
		if intBits(dst) >= intBits(src) && isLenOrCap(pass.TypesInfo, arg) {
			return true
		}
		if boundedByMin(pass.TypesInfo, arg, dst) {
			return true
		}
		if guardScope != nil && hasBoundsGuard(pass, guardScope, arg, call.Pos()) {
			return true
		}
		pass.Reportf(call.Pos(), "%s(%s) %s without a preceding bounds guard on %q",
			tv.Type, types.ExprString(call.Args[0]), reason, types.ExprString(arg))
		return true
	})
}

// checkFloatNarrow reports float32 conversions of a float64 operand. On
// the encode paths in TruncScope such a conversion silently rounds — the
// widen-then-narrow round trip the native float32 pipeline exists to
// avoid, and a double rounding the single-rounding error bound in
// DESIGN §13 does not cover. A constant exactly representable at 32 bits
// is accepted; a deliberate format-level narrowing carries an
// stlint:ignore with its contract.
func checkFloatNarrow(pass *Pass, call *ast.CallExpr, dst, src *types.Basic, arg ast.Expr, atv types.TypeAndValue) {
	if dst.Kind() != types.Float32 || src.Kind() != types.Float64 {
		return
	}
	if atv.Value != nil && floatFits32(atv.Value) {
		return
	}
	pass.Reportf(call.Pos(), "float32(%s) silently rounds float64; keep the f32 path native, or annotate the one documented rounding",
		types.ExprString(call.Args[0]))
}

// typeSetHas reports whether the type set of t — a basic type, or the
// constraint of a type parameter, unions and embedded interfaces
// included — contains a type whose underlying type has the given kind.
func typeSetHas(t types.Type, kind types.BasicKind) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == kind
	case *types.Interface:
		for i := 0; i < u.NumEmbeddeds(); i++ {
			if typeSetHas(u.EmbeddedType(i), kind) {
				return true
			}
		}
	case *types.Union:
		for i := 0; i < u.Len(); i++ {
			if typeSetHas(u.Term(i).Type(), kind) {
				return true
			}
		}
	}
	return false
}

// floatFits32 reports whether constant v round-trips through float32
// exactly, so the conversion cannot change the value.
func floatFits32(v constant.Value) bool {
	if v.Kind() != constant.Float && v.Kind() != constant.Int {
		return false
	}
	f, _ := constant.Float64Val(v)
	return float64(float32(f)) == f //stlint:ignore floateq exact round-trip representability is the point of the check
}

func truncInScope(scope []string, pkgPath string) bool {
	if len(scope) == 0 {
		return true
	}
	for _, s := range scope {
		if strings.Contains(pkgPath, s) {
			return true
		}
	}
	return false
}

// intBits returns the value width of an integer kind; int, uint and
// uintptr are treated as 64-bit, their widest platform size.
func intBits(b *types.Basic) int {
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	default:
		return 64
	}
}

func isUnsignedKind(b *types.Basic) bool {
	return b.Info()&types.IsUnsigned != 0
}

// truncRisk classifies a src→dst integer conversion; "" means the
// conversion can never change the value.
func truncRisk(dst, src *types.Basic) string {
	db, sb := intBits(dst), intBits(src)
	du, su := isUnsignedKind(dst), isUnsignedKind(src)
	switch {
	case db < sb:
		return "narrows " + src.Name()
	case !su && du:
		return "drops the sign of " + src.Name()
	case su && !du && db <= sb:
		return "can wrap " + src.Name() + " negative"
	}
	return ""
}

// constFits reports whether constant v is exactly representable in dst.
func constFits(v constant.Value, dst *types.Basic) bool {
	if v.Kind() != constant.Int {
		return false
	}
	return representableInt(v, dst)
}

func representableInt(v constant.Value, dst *types.Basic) bool {
	bits := intBits(dst)
	if isUnsignedKind(dst) {
		u, ok := constant.Uint64Val(v)
		if !ok {
			return false
		}
		return bits == 64 || u < 1<<uint(bits)
	}
	i, ok := constant.Int64Val(v)
	if !ok {
		return false
	}
	if bits == 64 {
		return true
	}
	limit := int64(1) << uint(bits-1)
	return i >= -limit && i < limit
}

// maskedInRange reports whether arg is `x & C` (or `C & x`) with a
// constant C that fits dst, which bounds the value regardless of x.
func maskedInRange(info *types.Info, arg ast.Expr, dst *types.Basic) bool {
	bin, ok := arg.(*ast.BinaryExpr)
	if !ok || bin.Op != token.AND {
		return false
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if tv, ok := info.Types[side]; ok && tv.Value != nil && constFits(tv.Value, dst) {
			return true
		}
	}
	return false
}

// isLenOrCap reports whether arg is a call of the builtin len or cap,
// whose results are non-negative by the language spec.
func isLenOrCap(info *types.Info, arg ast.Expr) bool {
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && (b.Name() == "len" || b.Name() == "cap")
}

// boundedByMin reports whether arg is a builtin min(...) call that proves
// the value fits dst: at least one operand is a constant representable in
// dst (an upper bound), and every non-constant operand is unsigned (so
// the result cannot be negative either).
func boundedByMin(info *types.Info, arg ast.Expr, dst *types.Basic) bool {
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "min" {
		return false
	}
	hasConstBound := false
	for _, a := range call.Args {
		tv, ok := info.Types[a]
		if !ok {
			return false
		}
		if tv.Value != nil {
			if constFits(tv.Value, dst) {
				hasConstBound = true
			}
			continue
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || !isUnsignedKind(b) {
			return false
		}
	}
	return hasConstBound
}

// hasBoundsGuard reports whether a relational comparison mentioning the
// same expression as arg appears in guardScope before pos. The comparison
// direction is not modeled: any earlier `<, <=, >, >=` on the value is
// taken as evidence the range was considered, which keeps the check
// honest without a dataflow engine.
func hasBoundsGuard(pass *Pass, guardScope ast.Node, arg ast.Expr, pos token.Pos) bool {
	want := types.ExprString(arg)
	found := false
	ast.Inspect(guardScope, func(n ast.Node) bool {
		if found {
			return false
		}
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || bin.End() > pos {
			return true
		}
		switch bin.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			if types.ExprString(ast.Unparen(bin.X)) == want || types.ExprString(ast.Unparen(bin.Y)) == want {
				found = true
			}
		}
		return true
	})
	return found
}
