package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"cobra/internal/vet"
)

// StoreLock enforces the monet.Journal contract documented on the
// interface: journal methods are invoked while the store's writer
// mutex is held, so an implementation that calls back into the store
// to mutate it — directly or through a field — self-deadlocks (and a
// read would see the store before the mutation being journaled). The
// check flags any (*monet.Store) method call inside a method named
// Journal*.
var StoreLock = &vet.Analyzer{
	Name: "storelock",
	Code: "CV004",
	Doc: "report monet.Store calls inside Journal* methods, which run " +
		"under the store's writer mutex and would deadlock",
	Run: runStoreLock,
}

func runStoreLock(pass *vet.Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !strings.HasPrefix(fn.Name.Name, "Journal") || fn.Body == nil {
				continue
			}
			checkJournalBody(pass, fn)
		}
	}
	return nil
}

// checkJournalBody walks one Journal* method for store calls.
func checkJournalBody(pass *vet.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isMonetStore(pass.TypeOf(sel.X)) {
			pass.Reportf(call.Pos(),
				"%s runs under the store's writer mutex: calling (*monet.Store).%s deadlocks",
				fn.Name.Name, sel.Sel.Name)
		}
		return true
	})
}

// isMonetStore matches monet.Store and *monet.Store.
func isMonetStore(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Store" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/monet")
}
