// Package milcheck is the static verification layer over MIL plans:
// a semantic analyzer that runs before the interpreter, the way Monet
// front-loads plan validation before kernel dispatch. It performs
// symbol resolution (use-before-def, unused and redeclared variables),
// BAT head/tail type inference through every stdlib operator and
// kernel method, dead-code detection, and a PARALLEL-block safety pass
// that flags write-write and read-write conflicts on variables shared
// across branches (the paper's Fig. 4 threadcnt pattern).
//
// The checker is wired in at two layers of the stack: the COQL engine
// and the server validate plans at EXPLAIN / CHECK time, and
// cmd/milcheck lints .mil files from the command line.
package milcheck

import (
	"fmt"
	"sort"
)

// Severity classifies a diagnostic.
type Severity int

// Severity levels: errors make a plan invalid; warnings flag suspect
// but executable constructs.
const (
	Warning Severity = iota
	Error
)

// String renders the severity.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Line     int
	Col      int
	Severity Severity
	// Code is a stable machine-readable identifier, e.g. "unbound-var".
	Code string
	Msg  string
}

// String renders the diagnostic as "line:col: severity: msg [code]".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s: %s [%s]", d.Line, d.Col, d.Severity, d.Msg, d.Code)
}

// HasErrors reports whether any diagnostic is an error.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Errors returns only the error-severity diagnostics.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// sortDiags orders diagnostics by position, errors before warnings at
// the same position.
func sortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Severity > b.Severity
	})
}
