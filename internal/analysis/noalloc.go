package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Noalloc checks that functions annotated `//nexus:noalloc` — the pinned
// warm paths, each cross-referenced to a runtime allocation pin in
// alloc_test.go — stay allocation-free, transitively through static
// callees in the same module. It flags the constructs that heap-allocate:
//
//   - make / new, map and slice composite literals, &T{...}
//   - append that does not feed back into its own first argument
//   - fmt.* and errors.* calls, non-constant string concatenation,
//     string↔[]byte conversions (except a []byte→string conversion written
//     directly as the key of a map lookup, `m[string(b)]`, which the
//     compiler performs without allocating)
//   - closures that capture variables, method values, `go` statements
//   - explicit conversions that box a non-pointer value into an interface
//
// Two code shapes are recognized as warm-path-compatible without
// annotation. A `return` statement whose error-position result is a direct
// error construction (fmt.Errorf, errors.New, or an `//nexus:alloc-ok`
// callee) is a failure path: error construction allocates by definition
// and the runtime pins measure the success path. And a closure assigned to
// a local variable that is only ever called (never stored, passed, or
// returned) does not escape — Go stack-allocates it — so its body is
// scanned as part of this warm path instead of being flagged.
//
// Escape hatches, all deliberate and reviewable: `//nexus:coldpath` on a
// statement excludes that statement's subtree (a miss/error branch off the
// warm path); `//nexus:alloc-ok` on a function declaration stops the
// descent into it (a cold helper such as an error constructor). Dynamic
// calls (func values, interface methods) and standard-library callees are
// not traversed — the run-time pins in alloc_test.go cover what the static
// view cannot see.
type Noalloc struct{}

// Name implements Analyzer.
func (Noalloc) Name() string { return "noalloc" }

// Run implements Analyzer.
func (Noalloc) Run(prog *Program) []Finding {
	var roots []*FuncInfo
	for _, pk := range prog.Pkgs {
		for _, fi := range funcsOf(prog, pk) {
			if docHasDirective(fi.Decl, "noalloc") {
				roots = append(roots, fi)
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Decl.Pos() < roots[j].Decl.Pos() })

	c := &noallocChecker{prog: prog, visited: map[*types.Func]bool{}}
	for _, root := range roots {
		c.scan(root, []string{funcDisplay(root.Obj)})
	}
	return c.findings
}

type noallocChecker struct {
	prog     *Program
	visited  map[*types.Func]bool
	findings []Finding
}

func (c *noallocChecker) report(pk *Package, n ast.Node, chain []string, msg string) {
	if pk.suppressed(c.prog.Fset, n, "coldpath") {
		return
	}
	c.findings = append(c.findings, Finding{
		Pos:      c.prog.Fset.Position(n.Pos()),
		Analyzer: "noalloc",
		Message:  fmt.Sprintf("%s on noalloc path (root %s)", msg, chain[0]),
		Chain:    "path: " + strings.Join(chain, " -> "),
	})
}

// scan walks one function's warm region, reporting allocating constructs
// and descending into module-local static callees.
func (c *noallocChecker) scan(fi *FuncInfo, chain []string) {
	if c.visited[fi.Obj] || fi.Decl.Body == nil {
		return
	}
	c.visited[fi.Obj] = true
	pk := fi.Pkg
	fset := c.prog.Fset

	selfAppend := allowedAppends(pk, fi.Decl.Body)
	lookupKeys := mapLookupKeys(pk, fi.Decl.Body)
	localClosure := localCalledClosures(pk, fi.Decl.Body)
	inCallPos := map[ast.Node]bool{}
	var callees []*FuncInfo

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if s, ok := n.(ast.Stmt); ok && pk.suppressed(fset, s, "coldpath") {
			return false // cold branch: excluded from the warm region
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if len(n.Results) > 0 && c.isErrorConstruction(pk, n.Results[len(n.Results)-1]) {
				return false // failure path: error construction is off the warm region
			}
		case *ast.GoStmt:
			c.report(pk, n, chain, "`go` statement allocates a goroutine")
			return false
		case *ast.CallExpr:
			inCallPos[n.Fun] = true
			if _, ok := n.Fun.(*ast.FuncLit); ok {
				// Immediately-invoked literal: its body is warm and a
				// capture-free literal does not itself allocate, so just
				// descend.
				return true
			}
			c.checkCall(pk, n, chain, selfAppend, lookupKeys, &callees)
			return true
		case *ast.FuncLit:
			if !inCallPos[n] {
				if localClosure[n] {
					// Assigned to a local that is only ever called: the
					// closure does not escape (stack-allocated) and its
					// body runs on this warm path — scan it.
					return true
				}
				if capturesOuter(pk, n) {
					c.report(pk, n, chain, "closure captures variables and allocates")
				}
				return false // body runs elsewhere; not this warm path
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					c.report(pk, n, chain, "&composite literal escapes to the heap")
					return false
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pk.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					c.report(pk, n, chain, "slice literal allocates")
				case *types.Map:
					c.report(pk, n, chain, "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pk.Info.Types[n]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						c.report(pk, n, chain, "string concatenation allocates")
					}
				}
			}
		case *ast.SelectorExpr:
			if !inCallPos[n] {
				if sel, ok := pk.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
					c.report(pk, n, chain, "method value allocates")
				}
			}
		}
		return true
	})

	for _, callee := range callees {
		c.scan(callee, append(chain, funcDisplay(callee.Obj)))
	}
}

// checkCall classifies one call in the warm region: allocating builtin,
// allocating conversion, forbidden package, or a module-local callee to
// descend into.
func (c *noallocChecker) checkCall(pk *Package, call *ast.CallExpr, chain []string, selfAppend, lookupKeys map[*ast.CallExpr]bool, callees *[]*FuncInfo) {
	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pk.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.report(pk, call, chain, "make allocates")
			case "new":
				c.report(pk, call, chain, "new allocates")
			case "append":
				if !selfAppend[call] {
					c.report(pk, call, chain, "append outside an `x = append(x, ...)` reuse pattern allocates")
				}
			}
			return
		}
	}

	// Conversions.
	if tv, ok := pk.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if !lookupKeys[call] {
			c.checkConversion(pk, call, tv.Type, chain)
		}
		return
	}

	callee := pk.calleeOf(call)
	if callee == nil || callee.Pkg() == nil {
		return // dynamic call: not traversed (documented limit)
	}
	switch callee.Pkg().Path() {
	case "fmt":
		c.report(pk, call, chain, "call to fmt."+callee.Name()+" allocates")
		return
	case "errors":
		c.report(pk, call, chain, "call to errors."+callee.Name()+" allocates")
		return
	}
	fi := c.prog.FuncOf(callee)
	if fi == nil {
		return // outside the module: covered by the runtime pins
	}
	if docHasDirective(fi.Decl, "alloc-ok") {
		return // declared cold helper
	}
	if docHasDirective(fi.Decl, "noalloc") {
		return // independently checked as its own root
	}
	if pk.suppressed(c.prog.Fset, call, "coldpath") {
		return
	}
	*callees = append(*callees, fi)
}

func (c *noallocChecker) checkConversion(pk *Package, call *ast.CallExpr, target types.Type, chain []string) {
	arg := call.Args[0]
	atv, ok := pk.Info.Types[arg]
	if !ok || atv.Value != nil {
		return // constant conversions are free
	}
	switch t := target.Underlying().(type) {
	case *types.Basic:
		if t.Info()&types.IsString != 0 {
			if _, ok := atv.Type.Underlying().(*types.Slice); ok {
				c.report(pk, call, chain, "[]byte→string conversion allocates")
			}
		}
	case *types.Slice:
		if b, ok := atv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			c.report(pk, call, chain, "string→slice conversion allocates")
		}
	case *types.Interface:
		if !pointerShaped(atv.Type) {
			c.report(pk, call, chain, "conversion boxes a non-pointer value into an interface")
		}
	}
}

// pointerShaped reports whether boxing a value of type t into an interface
// needs no allocation (the value fits the interface data word directly).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// isErrorConstruction reports whether e builds a fresh error value: a call
// to fmt.Errorf or errors.New, or to a module function annotated
// `//nexus:alloc-ok` (the kernel's abiErr and its kin). A return statement
// carrying one in error position is a failure path, not the warm path.
func (c *noallocChecker) isErrorConstruction(pk *Package, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	callee := pk.calleeOf(call)
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	switch callee.Pkg().Path() {
	case "fmt":
		return callee.Name() == "Errorf"
	case "errors":
		return callee.Name() == "New"
	}
	if fi := c.prog.FuncOf(callee); fi != nil && docHasDirective(fi.Decl, "alloc-ok") {
		if res := callee.Type().(*types.Signature).Results(); res.Len() > 0 {
			last := res.At(res.Len() - 1).Type()
			if named, ok := last.(*types.Named); ok && named.Obj().Name() == "Error" {
				return true
			}
			if types.Identical(last, types.Universe.Lookup("error").Type()) {
				return true
			}
		}
	}
	return false
}

// localCalledClosures finds `f := func(...) {...}` literals whose variable
// is only ever used in call position inside body: such a closure never
// escapes, so Go keeps it (and its capture record) on the stack.
func localCalledClosures(pk *Package, body *ast.BlockStmt) map[*ast.FuncLit]bool {
	cand := map[types.Object]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		fl, ok := unparen(as.Rhs[0]).(*ast.FuncLit)
		if !ok {
			return true
		}
		obj := pk.Info.Defs[id]
		if obj == nil {
			obj = pk.Info.Uses[id] // plain `=` rebind: disqualify below
		}
		if obj != nil {
			if _, dup := cand[obj]; dup {
				delete(cand, obj) // rebound: conservatively give up
			} else {
				cand[obj] = fl
			}
		}
		return true
	})
	if len(cand) == 0 {
		return nil
	}
	// Disqualify any candidate used outside call position.
	calls := map[types.Object]int{}
	uses := map[types.Object]int{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok {
				if obj := pk.Info.Uses[id]; obj != nil {
					if _, ok := cand[obj]; ok {
						calls[obj]++
					}
				}
			}
		case *ast.Ident:
			if obj := pk.Info.Uses[n]; obj != nil {
				if _, ok := cand[obj]; ok {
					uses[obj]++
				}
			}
		}
		return true
	})
	out := map[*ast.FuncLit]bool{}
	for obj, fl := range cand {
		if uses[obj] == calls[obj] {
			out[fl] = true
		}
	}
	return out
}

// mapLookupKeys marks the calls written directly as the key of a map
// lookup on a string-keyed map, `m[string(b)]`: for a []byte→string
// conversion there, the compiler reads the map through a temporary view of
// b instead of allocating a string. A map index that is assigned to stores
// its key, so its conversion is not marked.
func mapLookupKeys(pk *Package, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	stored := map[ast.Expr]bool{}
	keys := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				stored[unparen(l)] = true
			}
		case *ast.IncDecStmt:
			stored[unparen(n.X)] = true
		case *ast.RangeStmt:
			if n.Key != nil {
				stored[unparen(n.Key)] = true
			}
			if n.Value != nil {
				stored[unparen(n.Value)] = true
			}
		case *ast.IndexExpr:
			tv, ok := pk.Info.Types[n.X]
			if !ok || stored[n] {
				return true
			}
			m, ok := tv.Type.Underlying().(*types.Map)
			if !ok {
				return true
			}
			if k, ok := m.Key().Underlying().(*types.Basic); !ok || k.Info()&types.IsString == 0 {
				return true
			}
			if call, ok := unparen(n.Index).(*ast.CallExpr); ok {
				keys[call] = true
			}
		}
		return true
	})
	return keys
}

// allowedAppends marks append calls of the arena-reuse shape
// `x = append(x, ...)` (including `x = append(x[:0], ...)` and
// `*p = append(*p, ...)`): amortized-zero once the buffer is warm.
func allowedAppends(pk *Package, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	allowed := map[*ast.CallExpr]bool{}
	norm := func(e ast.Expr) string {
		return strings.NewReplacer("(", "", ")", "", " ", "").Replace(types.ExprString(e))
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if id, ok := unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		lhs, arg := norm(as.Lhs[0]), norm(call.Args[0])
		if arg == lhs || strings.HasPrefix(arg, lhs+"[") {
			allowed[call] = true
		}
		return true
	})
	return allowed
}

// capturesOuter reports whether a function literal references any variable
// declared outside itself (other than package-level ones): such a closure
// must materialize a capture record on the heap.
func capturesOuter(pk *Package, fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		v, ok := pk.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || isPkgLevel(v) || !v.Pos().IsValid() {
			return true
		}
		if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
			found = true
		}
		return true
	})
	return found
}
