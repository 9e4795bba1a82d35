package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"cobra/internal/vet"
)

// EpochGuard enforces the store's index-invalidation contract: the
// adaptive access paths (zone maps, dictionaries) cache
// per-BAT state keyed by an epoch counter, so every method of a
// store-like type — a struct holding the `bats` map — that mutates
// stored BATs must bump the epoch via bumpEpochLocked in the same
// function. A mutation is an assignment to a `bats` entry, a
// delete(...bats, ...) call, or an Insert/MustInsert into a stored
// *monet.BAT (the in-place tail append Append performs) — inserts
// into freshly built report or scratch BATs are exempt. Without the
// bump, indexes keep answering from the pre-mutation column copy.
var EpochGuard = &vet.Analyzer{
	Name: "epochguard",
	Code: "CV007",
	Doc: "report store methods that mutate stored BATs (bats map writes, " +
		"deletes, or in-place BAT inserts) without bumping the index epoch " +
		"via bumpEpochLocked",
	Run: runEpochGuard,
}

func runEpochGuard(pass *vet.Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			if fn.Name.Name == "bumpEpochLocked" {
				continue
			}
			if len(fn.Recv.List) == 0 || !hasBatsField(pass.TypeOf(fn.Recv.List[0].Type)) {
				continue
			}
			checkEpochBody(pass, fn)
		}
	}
	return nil
}

// hasBatsField reports whether t (or its pointee) is a struct with a
// map field named bats — the shape of the kernel store.
func hasBatsField(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "bats" {
			_, isMap := f.Type().Underlying().(*types.Map)
			return isMap
		}
	}
	return false
}

// checkEpochBody records BAT mutations and bumpEpochLocked calls in
// one store method, reporting each mutation when no bump is present.
// Insert/MustInsert only counts as a mutation when its receiver
// provably derives from the bats map — either `x.bats[k].Insert(...)`
// directly or through an identifier assigned from a bats entry.
// Inserts into locally constructed BATs (report builders, scratch
// results) are outside the invalidation contract.
func checkEpochBody(pass *vet.Pass, fn *ast.FuncDecl) {
	stored := storedBATIdents(fn.Body)
	var muts []ast.Node
	var verbs []string
	bumped := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if sel, ok := ix.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "bats" {
					muts = append(muts, st)
					verbs = append(verbs, "assigns a bats entry")
				}
			}
		case *ast.CallExpr:
			if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "delete" && len(st.Args) > 0 {
				if sel, ok := st.Args[0].(*ast.SelectorExpr); ok && sel.Sel.Name == "bats" {
					muts = append(muts, st)
					verbs = append(verbs, "deletes a bats entry")
				}
				return true
			}
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "bumpEpochLocked":
				bumped = true
			case "Insert", "MustInsert":
				if isMonetBAT(pass.TypeOf(sel.X)) && derivesFromBats(sel.X, stored) {
					muts = append(muts, st)
					verbs = append(verbs, "inserts into a stored BAT in place")
				}
			}
		}
		return true
	})
	if bumped {
		return
	}
	for i, m := range muts {
		pass.Reportf(m.Pos(),
			"%s %s without bumping the index epoch: call bumpEpochLocked or indexes serve stale data",
			fn.Name.Name, verbs[i])
	}
}

// storedBATIdents collects names of identifiers assigned from a bats
// entry in body — `b := s.bats[name]` or the comma-ok form — which
// are the aliases through which store methods mutate stored BATs.
func storedBATIdents(body *ast.BlockStmt) map[string]bool {
	stored := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		if !isBatsIndex(as.Rhs[0]) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			stored[id.Name] = true
		}
		return true
	})
	return stored
}

// isBatsIndex matches an index expression over a field named bats,
// e.g. s.bats[name].
func isBatsIndex(e ast.Expr) bool {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	sel, ok := ix.X.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "bats"
}

// derivesFromBats reports whether an Insert receiver expression is a
// bats entry: a direct s.bats[k] index or an identifier previously
// assigned from one.
func derivesFromBats(recv ast.Expr, stored map[string]bool) bool {
	if isBatsIndex(recv) {
		return true
	}
	id, ok := recv.(*ast.Ident)
	return ok && stored[id.Name]
}

// isMonetBAT matches monet.BAT and *monet.BAT (and the in-package
// spelling BAT when analyzing monet itself).
func isMonetBAT(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "BAT" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/monet")
}
