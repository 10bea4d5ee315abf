// Package monotonicts enforces the timestamp-monotonicity invariant behind
// PaRiS's snapshot guarantees: the UST, the stable-old watermark and the
// per-DC version-vector entries only ever advance (ISSUE: §IV — a snapshot
// certified by a regressed UST could miss writes forever). The codebase
// funnels every such update through the CAS-advance helper
// internal/server/atomicts.go; this analyzer flags the two ways code can
// sneak past it:
//
//  1. a raw Store or Swap on a timestamp-carrying atomic — blind writes can
//     regress the value under concurrency, unlike the Load/CompareAndSwap
//     loop of atomicTS.advance;
//  2. mixed atomic and non-atomic access to one field — a plain read beside
//     sync/atomic writes is a data race, and a plain write invalidates every
//     atomic reader's monotonicity reasoning.
package monotonicts

import (
	"go/ast"
	"go/types"
	"regexp"

	"github.com/paris-kv/paris/internal/analysis"
)

// Analyzer is the monotonicts analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "monotonicts",
	Doc: "flag raw atomic Store/Swap on timestamp-carrying fields and mixed " +
		"atomic/non-atomic access to a field; timestamps must advance through " +
		"the CAS helpers (internal/server/atomicts.go)",
	Run: run,
}

// tsField matches field names that carry protocol timestamps. Sequence
// counters (txSeq, a flow pump's seq) deliberately do not match: they are
// identifiers, not timestamps, and a Store is their legitimate seeding
// operation.
var tsField = regexp.MustCompile(`(?i:^(ts|ust|gst|sold|vv|hwt|clock|watermark|snapshot|deadline)$)|(^|[a-z_])(Ts|TS|UST|GST|VV|HWT|Time|Clock|Watermark|Snapshot|Deadline)$`)

// tsOwner matches struct types whose whole purpose is monotonic timestamp
// publication; any raw Store/Swap on their innards is a bypass regardless of
// the inner field's name (atomicTS keeps its value in a field called "v").
var tsOwner = regexp.MustCompile(`(?i)^atomic.?ts$`)

// atomicWriteMethod marks the blind-write methods of the sync/atomic types.
var atomicWriteMethod = map[string]bool{"Store": true, "Swap": true}

// atomicPkgWriters are the package-level blind-write functions.
var atomicPkgWriters = map[string]bool{
	"StoreUint32": true, "StoreUint64": true, "StoreInt32": true,
	"StoreInt64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapUint32": true, "SwapUint64": true, "SwapInt32": true,
	"SwapInt64": true, "SwapUintptr": true, "SwapPointer": true,
}

func isAtomicPkg(pkg *types.Package) bool {
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// fieldInfo describes the field a selector chain writes through: the
// innermost field name plus the named type that owns it.
type fieldInfo struct {
	name  string
	owner *types.Named
}

// selectorField resolves e (the receiver of an atomic method call or the
// operand of &x.f) to its field, if it is one.
func selectorField(info *types.Info, e ast.Expr) (fieldInfo, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return fieldInfo{}, false
	}
	f := analysis.FieldObj(info, sel)
	if f == nil {
		return fieldInfo{}, false
	}
	return fieldInfo{name: f.Name(), owner: analysis.NamedOf(info.TypeOf(sel.X))}, true
}

// timestampCarrying reports whether the written-through field looks like a
// protocol timestamp: either its own name says so, or it lives inside a
// dedicated timestamp-atomic wrapper type.
func timestampCarrying(fi fieldInfo) bool {
	if tsField.MatchString(fi.name) {
		return true
	}
	return fi.owner != nil && tsOwner.MatchString(fi.owner.Obj().Name())
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// Pass 1 of the mixed-access rule: every field whose address feeds a
	// sync/atomic package function is an "atomic field", and the selector
	// nodes inside those calls are sanctioned.
	atomicFields := make(map[*types.Var]bool)
	sanctioned := make(map[*ast.SelectorExpr]bool)
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || !isAtomicPkg(fn.Pkg()) {
			return true
		}
		for _, arg := range call.Args {
			un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok || un.Op.String() != "&" {
				continue
			}
			sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if f := analysis.FieldObj(info, sel); f != nil {
				atomicFields[f] = true
				sanctioned[sel] = true
			}
		}
		return true
	})

	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(info, n)
			if fn == nil || !isAtomicPkg(fn.Pkg()) {
				return true
			}
			sig := fn.Type().(*types.Signature)
			if recv := sig.Recv(); recv != nil {
				// Method form: x.f.Store(v) / x.f.Swap(v).
				if !atomicWriteMethod[fn.Name()] {
					return true
				}
				selFun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if fi, ok := selectorField(info, selFun.X); ok && timestampCarrying(fi) {
					pass.Reportf(n.Pos(),
						"raw atomic %s on timestamp-carrying field %q: timestamps must advance through the monotonic CAS helper (atomicTS.advance), never a blind write",
						fn.Name(), fi.name)
				}
				return true
			}
			// Package-function form: atomic.StoreUint64(&x.f, v).
			if !atomicPkgWriters[fn.Name()] || len(n.Args) == 0 {
				return true
			}
			if un, ok := ast.Unparen(n.Args[0]).(*ast.UnaryExpr); ok && un.Op.String() == "&" {
				if fi, ok := selectorField(info, un.X); ok && timestampCarrying(fi) {
					pass.Reportf(n.Pos(),
						"raw atomic.%s on timestamp-carrying field %q: timestamps must advance through the monotonic CAS helper, never a blind write",
						fn.Name(), fi.name)
				}
			}
		case *ast.SelectorExpr:
			// Pass 2 of the mixed-access rule: any unsanctioned touch of an
			// atomic field.
			f := analysis.FieldObj(info, n)
			if f == nil || !atomicFields[f] || sanctioned[n] {
				return true
			}
			pass.Reportf(n.Pos(),
				"field %q is written through sync/atomic elsewhere in this package; this plain access races with the atomic users",
				f.Name())
		}
		return true
	})
	return nil
}
