// Command doclint fails when exported identifiers lack godoc
// comments; it is the documentation gate run in CI alongside gofmt and
// vet, equivalent to revive's exported-comment rule but dependency
// free.
//
// Usage:
//
//	go run ./cmd/doclint [-analyzers dir:catalogue.md] [-observability doc.md] ./internal/monet ./internal/wal ...
//
// For every named package directory it checks that the package has a
// package comment and that each exported top-level declaration — func,
// type, method on an exported type, and var/const (grouped
// declarations may share one doc comment) — carries a doc comment.
// Test files are skipped. Violations print as file:line: messages and
// the exit status is 1 if any were found.
//
// -analyzers dir:catalogue.md additionally cross-checks the cobravet
// suite against its prose catalogue: every vet.Analyzer declared under
// dir (a composite literal with string Name and Code fields) must have
// a "### CVnnn `name`" heading in the markdown file, and every such
// heading must correspond to a declared analyzer — so the catalogue
// can neither lag behind a new analyzer nor describe a removed one.
//
// -observability doc.md checks the metric and span tables of the
// observability guide against the code: every backquoted name in the
// first column of a "| metric |" table must be a string literal passed
// to obs.C/G/H or a Registry's Counter/Gauge/Histogram, and every name
// in a "| span |" table a literal passed to StartChild/StartTrace/
// StartTraceAt or AddChild (a span recorded after the fact), in
// the module's non-test Go files. A span name may end in "*", which
// matches any literal, or literal prefix of a concatenation, that
// starts with the rest — so a row can neither name a metric or span
// nothing records nor outlive the code that recorded it.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	analyzersSpec := flag.String("analyzers", "",
		"dir:markdown — cross-check every vet.Analyzer under dir against CVnnn headings in markdown")
	obsDoc := flag.String("observability", "",
		"markdown — check every metric and span table row against the names the code records")
	flag.Parse()
	if flag.NArg() == 0 && *analyzersSpec == "" && *obsDoc == "" {
		fmt.Fprintln(os.Stderr, "usage: doclint [-analyzers dir:catalogue.md] [-observability doc.md] <package-dir>...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range flag.Args() {
		dir = strings.TrimPrefix(dir, "./")
		bad += lintDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d undocumented exported identifier(s)\n", bad)
		os.Exit(1)
	}
	if *analyzersSpec != "" {
		dir, md, ok := strings.Cut(*analyzersSpec, ":")
		if !ok {
			fmt.Fprintln(os.Stderr, "doclint: -analyzers wants dir:catalogue.md")
			os.Exit(2)
		}
		if n := lintAnalyzerCatalogue(dir, md); n > 0 {
			fmt.Fprintf(os.Stderr, "doclint: %d analyzer-catalogue mismatch(es)\n", n)
			os.Exit(1)
		}
	}
	if *obsDoc != "" {
		if n := lintObservability(".", *obsDoc); n > 0 {
			fmt.Fprintf(os.Stderr, "doclint: %d observability-table row(s) name nothing the code records\n", n)
			os.Exit(1)
		}
	}
}

// docTableHeader matches the header row of a metric or span table.
var docTableHeader = regexp.MustCompile(`^\|\s*(metric|span)\s*\|`)

// backquoted matches one backquoted name in a table cell.
var backquoted = regexp.MustCompile("`([^`]+)`")

// lintObservability checks the metric and span tables of md against
// the names recorded by the non-test Go files under root and returns
// the count of rows naming nothing.
func lintObservability(root, md string) int {
	data, err := os.ReadFile(md)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		return 1
	}
	metrics, spans, err := recordedNames(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		return 1
	}
	bad := 0
	table := ""
	for i, line := range strings.Split(string(data), "\n") {
		if m := docTableHeader.FindStringSubmatch(line); m != nil {
			table = m[1]
			continue
		}
		if !strings.HasPrefix(line, "|") {
			table = ""
			continue
		}
		if table == "" || strings.HasPrefix(line, "|---") {
			continue
		}
		first := strings.SplitN(line[1:], "|", 2)[0]
		for _, m := range backquoted.FindAllStringSubmatch(first, -1) {
			name := m[1]
			ok := false
			switch table {
			case "metric":
				ok = metrics[name]
			case "span":
				ok = spanRecorded(spans, name)
			}
			if !ok {
				fmt.Printf("%s:%d: %s %q is not recorded by any non-test Go code\n", md, i+1, table, name)
				bad++
			}
		}
	}
	return bad
}

// spanRecorded reports whether a documented span name — exact, or a
// prefix ending in "*" — matches a recorded span name or prefix.
func spanRecorded(spans map[string]bool, name string) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	for s, isPrefix := range spans {
		if wild && strings.HasPrefix(s, prefix) || !wild && !isPrefix && s == name {
			return true
		}
	}
	return false
}

// recordedNames collects, from every non-test Go file under root
// outside nested modules, testdata and hidden directories, the string
// literals passed as the first argument of metric constructors
// (metrics) and of span starters (spans; true marks the literal left
// operand of a concatenation, a name prefix).
func recordedNames(root string) (metrics, spans map[string]bool, err error) {
	metrics, spans = map[string]bool{}, map[string]bool{}
	metricFuncs := map[string]bool{"C": true, "G": true, "H": true, "Counter": true, "Gauge": true, "Histogram": true}
	spanFuncs := map[string]bool{"StartChild": true, "StartTrace": true, "StartTraceAt": true, "AddChild": true}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			var fn string
			switch f := call.Fun.(type) {
			case *ast.Ident:
				fn = f.Name
			case *ast.SelectorExpr:
				fn = f.Sel.Name
			}
			switch {
			case metricFuncs[fn]:
				if s, ok := stringLit(call.Args[0]); ok {
					metrics[s] = true
				}
			case spanFuncs[fn]:
				if s, ok := stringLit(call.Args[0]); ok {
					spans[s] = false
				} else if bin, ok := call.Args[0].(*ast.BinaryExpr); ok && bin.Op == token.ADD {
					if s, ok := stringLit(bin.X); ok {
						spans[s] = true
					}
				}
			}
			return true
		})
		return nil
	})
	return metrics, spans, err
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// fileExists reports whether path names an existing file.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// catalogueHeading matches one analyzer's section heading in the
// markdown catalogue.
var catalogueHeading = regexp.MustCompile("(?m)^### (CV[0-9]+) `([a-z]+)`")

// lintAnalyzerCatalogue cross-checks declared analyzers against the
// markdown catalogue in both directions and returns the mismatch
// count.
func lintAnalyzerCatalogue(dir, md string) int {
	declared, err := declaredAnalyzers(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
		return 1
	}
	if len(declared) == 0 {
		fmt.Printf("%s: no vet.Analyzer declarations found\n", dir)
		return 1
	}
	data, err := os.ReadFile(md)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		return 1
	}
	documented := map[string]string{}
	for _, m := range catalogueHeading.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = m[2]
	}
	bad := 0
	for code, name := range declared {
		if got, ok := documented[code]; !ok {
			fmt.Printf("%s: analyzer %s %q has no \"### %s `%s`\" heading in %s\n", dir, code, name, code, name, md)
			bad++
		} else if got != name {
			fmt.Printf("%s: heading for %s names %q but the analyzer is %q\n", md, code, got, name)
			bad++
		}
	}
	for code, name := range documented {
		if _, ok := declared[code]; !ok {
			fmt.Printf("%s: heading %s `%s` documents an analyzer not declared in %s\n", md, code, name, dir)
			bad++
		}
	}
	return bad
}

// declaredAnalyzers scans dir's non-test files for composite literals
// carrying string Name and Code fields — the shape of a vet.Analyzer
// declaration — and returns code → name.
func declaredAnalyzers(dir string) (map[string]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				var name, code string
				for _, el := range cl.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					lit, ok := kv.Value.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					val := strings.Trim(lit.Value, `"`)
					switch key.Name {
					case "Name":
						name = val
					case "Code":
						code = val
					}
				}
				if name != "" && strings.HasPrefix(code, "CV") {
					out[code] = name
				}
				return true
			})
		}
	}
	return out, nil
}

// lintDir checks one package directory and returns the violation count.
func lintDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
		return 1
	}
	bad := 0
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			fmt.Printf("%s: package %s has no package comment\n", dir, pkg.Name)
			bad++
		}
		for name, f := range pkg.Files {
			bad += lintFile(fset, name, f)
		}
	}
	return bad
}

// lintFile checks one parsed file and returns the violation count.
func lintFile(fset *token.FileSet, name string, f *ast.File) int {
	bad := 0
	report := func(pos token.Pos, what string) {
		fmt.Printf("%s: exported %s is undocumented\n", fset.Position(pos), what)
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !exportedRecv(d.Recv) {
				continue // method on an unexported type
			}
			kind := "function " + d.Name.Name
			if d.Recv != nil {
				kind = "method " + d.Name.Name
			}
			report(d.Pos(), kind)
		case *ast.GenDecl:
			// A doc comment on the group covers every spec in it.
			if d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && sp.Doc == nil && sp.Comment == nil {
						report(sp.Pos(), "type "+sp.Name.Name)
					}
				case *ast.ValueSpec:
					if sp.Doc != nil || sp.Comment != nil {
						continue
					}
					for _, id := range sp.Names {
						if id.IsExported() {
							report(id.Pos(), kindOf(d.Tok)+" "+id.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// exportedRecv reports whether a method receiver names an exported
// type.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// kindOf spells a GenDecl token for messages.
func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
