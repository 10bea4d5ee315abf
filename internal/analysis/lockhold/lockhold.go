// Package lockhold enforces the hot-path locking discipline the PR 5/6
// refactors bought: the client-operation and commit/apply planes are
// lock-free or hold only short leaf locks, and nothing blocking may happen
// inside any tracked critical section. It flags:
//
//   - blocking operations — channel sends/receives, selects without a
//     default, time.Sleep, WaitGroup/Cond waits, and transport calls
//     (Peer.Call/Cast/CastBatch, Endpoint.Send/SendBatch, net conn
//     Read/Write) — executed while a tracked mutex is held;
//   - lock-ordering violations against the repo's DAG: the server's tables
//     (txTable, twoPCTable, the store's shard) are *leaf* locks — code
//     holding one must not acquire any other tracked lock — and non-leaf
//     locks must not nest within each other. The one edge between two
//     tables, twoPCTable → txTable (decidingLocked), goes through a helper
//     call, which this intra-procedural analysis does not follow.
//
// The analysis is intra-procedural and path-sensitive enough for the
// codebase's idioms: early-return branches that unlock before returning do
// not poison the fall-through path, `defer mu.Unlock()` holds to function
// exit, function literals spawned with `go` start with an empty lock set,
// and a `select` with a default case is recognized as non-blocking.
// Blocking hidden behind a helper call in the same package is not traced —
// the helper itself is analyzed instead.
package lockhold

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"github.com/paris-kv/paris/internal/analysis"
)

// Analyzer is the lockhold analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc: "no blocking operation (channel ops, transport calls, sleeps, waits) " +
		"while holding a tracked mutex; shard locks are leaves of the " +
		"lock-ordering DAG and must not nest",
	Run: run,
}

// leafOwner matches the struct types whose mutexes are leaf locks: the
// server's context and 2PC tables and the store's shards. Fixtures reuse
// the same names.
var leafOwner = regexp.MustCompile(`^(txTable|twoPCTable|shard|.*Shard)$`)

// blockingRecv matches the named types whose Call/Cast/Send-family methods
// perform network I/O or otherwise block.
var blockingRecv = regexp.MustCompile(`(?i)(peer|endpoint|conn|net)`)

// blockingMethods on a blockingRecv type.
var blockingMethods = map[string]bool{
	"Call": true, "Cast": true, "CastBatch": true,
	"Send": true, "SendBatch": true, "Read": true, "Write": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w := &walker{pass: pass, info: pass.TypesInfo}
				w.walkStmts(fd.Body.List, lockSet{})
			}
		}
	}
	return nil
}

// lockSet maps lock keys to their acquisition position.
type lockSet map[string]token.Pos

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s lockSet) names() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

func union(a, b lockSet) lockSet {
	u := a.clone()
	for k, v := range b {
		if _, ok := u[k]; !ok {
			u[k] = v
		}
	}
	return u
}

type walker struct {
	pass *analysis.Pass
	info *types.Info
}

// lockKeyOf renders the mutex operand of a Lock/Unlock call as a stable
// key: "OwnerType.field" for field mutexes, the identifier name otherwise.
// leaf reports whether the owner is a sharded-table type.
func (w *walker) lockKeyOf(e ast.Expr) (key string, leaf bool, ok bool) {
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.SelectorExpr:
		f := analysis.FieldObj(w.info, v)
		if f == nil {
			return "", false, false
		}
		owner := analysis.NamedOf(w.info.TypeOf(v.X))
		ownerName := "?"
		if owner != nil {
			ownerName = owner.Obj().Name()
		}
		return ownerName + "." + f.Name(), leafOwner.MatchString(ownerName), true
	case *ast.Ident:
		return v.Name, false, true
	}
	return "", false, false
}

// classifyCall decides what a call does to the lock state.
type callKind int

const (
	callOther callKind = iota
	callLock
	callUnlock
	callBlocking
	// callCondWait is sync.Cond.Wait: it atomically releases its own lock
	// while parked, so it is legal with exactly that lock held — and a bug
	// with any additional lock, which stays held across the park.
	callCondWait
)

func (w *walker) classifyCall(call *ast.CallExpr) (kind callKind, key string, leaf bool, what string) {
	fn := analysis.CalleeFunc(w.info, call)
	if fn == nil {
		return callOther, "", false, ""
	}
	name := fn.Name()
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()

	// Mutex operations.
	if recv != nil && (analysis.TypeNameIs(recv.Type(), "sync", "Mutex") || analysis.TypeNameIs(recv.Type(), "sync", "RWMutex")) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return callOther, "", false, ""
		}
		k, lf, ok := w.lockKeyOf(sel.X)
		if !ok {
			return callOther, "", false, ""
		}
		switch name {
		case "Lock", "RLock":
			return callLock, k, lf, ""
		case "Unlock", "RUnlock":
			return callUnlock, k, lf, ""
		}
		return callOther, "", false, ""
	}

	// Blocking calls.
	if analysis.IsPkgCall(w.info, call, "time", "Sleep") {
		return callBlocking, "", false, "time.Sleep"
	}
	if recv != nil {
		if analysis.TypeNameIs(recv.Type(), "sync", "WaitGroup") && name == "Wait" {
			return callBlocking, "", false, "sync.WaitGroup.Wait"
		}
		if analysis.TypeNameIs(recv.Type(), "sync", "Cond") && name == "Wait" {
			return callCondWait, "", false, "sync.Cond.Wait"
		}
		if named := analysis.NamedOf(recv.Type()); named != nil &&
			blockingRecv.MatchString(named.Obj().Name()) && blockingMethods[name] {
			return callBlocking, "", false,
				fmt.Sprintf("%s.%s (network I/O)", named.Obj().Name(), name)
		}
	}
	return callOther, "", false, ""
}

func (w *walker) reportBlocking(pos token.Pos, what string, held lockSet) {
	w.pass.Reportf(pos, "blocking %s while holding %s; release the lock first (the lock-free hot path must never park under a shard or server lock)", what, held.names())
}

func (w *walker) acquire(pos token.Pos, key string, leaf bool, held lockSet) {
	for heldKey := range held {
		if leafOwner.MatchString(strings.Split(heldKey, ".")[0]) {
			w.pass.Reportf(pos, "acquiring %s while holding leaf lock %s: shard locks are leaves of the lock-ordering DAG (no lock may be taken under them)", key, heldKey)
		} else {
			w.pass.Reportf(pos, "acquiring %s while holding %s: not an edge of the lock-ordering DAG (only server-level → shard nesting is allowed)", key, heldKey)
		}
	}
	held[key] = pos
}

// scanExpr applies lock/blocking effects of every sub-expression of e, in
// pre-order (a close approximation of evaluation order). Function literals
// are skipped — they execute elsewhere.
func (w *walker) scanExpr(e ast.Expr, held lockSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walkStmts(n.Body.List, lockSet{})
			return false
		case *ast.CallExpr:
			kind, key, leaf, what := w.classifyCall(n)
			switch kind {
			case callLock:
				if _, isServerToLeaf := allowedNesting(held, key, leaf); !isServerToLeaf {
					w.acquire(n.Pos(), key, leaf, held)
				} else {
					held[key] = n.Pos()
				}
			case callUnlock:
				delete(held, key)
			case callBlocking:
				if len(held) > 0 {
					w.reportBlocking(n.Pos(), what, held)
				}
			case callCondWait:
				// The condvar idiom holds the Cond's own lock by contract;
				// only an *extra* held lock stays locked across the park.
				if len(held) > 1 {
					w.reportBlocking(n.Pos(), "sync.Cond.Wait (parks with more than its own lock held)", held)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 {
				w.reportBlocking(n.Pos(), "channel receive", held)
			}
		}
		return true
	})
}

// allowedNesting reports whether acquiring key/leaf with held locks is the
// one edge the DAG allows: a server-level (non-leaf) lock holder taking a
// leaf shard lock.
func allowedNesting(held lockSet, key string, leaf bool) (lockSet, bool) {
	if len(held) == 0 {
		return held, true
	}
	if !leaf {
		return held, false
	}
	for heldKey := range held {
		if leafOwner.MatchString(strings.Split(heldKey, ".")[0]) {
			return held, false // leaf under leaf: forbidden
		}
	}
	return held, true // server-level → shard: allowed
}

// walkStmts interprets a statement list, returning the lock set at its end
// and whether every path through it terminates (return/branch).
func (w *walker) walkStmts(stmts []ast.Stmt, held lockSet) (lockSet, bool) {
	for _, st := range stmts {
		var term bool
		held, term = w.walkStmt(st, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *walker) walkStmt(st ast.Stmt, held lockSet) (lockSet, bool) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		w.scanExpr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.scanExpr(s.Chan, held)
		w.scanExpr(s.Value, held)
		if len(held) > 0 {
			w.reportBlocking(s.Pos(), "channel send", held)
		}
	case *ast.IncDecStmt:
		w.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps the lock held to function exit — which
		// is exactly what the held set already says, so a deferred unlock
		// has no effect on the remainder of the walk. Other deferred calls
		// run outside this statement order; just scan their arguments.
		kind, _, _, _ := w.classifyCall(s.Call)
		if kind != callUnlock {
			for _, a := range s.Call.Args {
				w.scanExpr(a, held)
			}
			if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				w.walkStmts(fl.Body.List, lockSet{})
			}
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			w.scanExpr(a, held)
		}
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.walkStmts(fl.Body.List, lockSet{})
		}
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		thenHeld, thenTerm := w.walkStmts(s.Body.List, held.clone())
		elseHeld, elseTerm := held.clone(), false
		if s.Else != nil {
			elseHeld, elseTerm = w.walkStmt(s.Else, held.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return union(thenHeld, elseHeld), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		bodyHeld, _ := w.walkStmts(s.Body.List, held.clone())
		if s.Post != nil {
			w.walkStmt(s.Post, bodyHeld)
		}
		return union(held, bodyHeld), false
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		bodyHeld, _ := w.walkStmts(s.Body.List, held.clone())
		return union(held, bodyHeld), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Tag, held)
		after := held.clone()
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.scanExpr(e, held)
			}
			caseHeld, caseTerm := w.walkStmts(cc.Body, held.clone())
			if !caseTerm {
				after = union(after, caseHeld)
			}
		}
		return after, false
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		after := held.clone()
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseHeld, caseTerm := w.walkStmts(cc.Body, held.clone())
			if !caseTerm {
				after = union(after, caseHeld)
			}
		}
		return after, false
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && len(held) > 0 {
			w.reportBlocking(s.Pos(), "select without default", held)
		}
		after := held.clone()
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			// The comm statements themselves are the (already reported)
			// blocking point; walk only the clause bodies.
			caseHeld, caseTerm := w.walkStmts(cc.Body, held.clone())
			if !caseTerm {
				after = union(after, caseHeld)
			}
		}
		return after, false
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
		return held, true
	case *ast.BranchStmt:
		return held, true
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	}
	return held, false
}
