package query

import (
	"strings"
	"testing"
)

// FuzzParseCanonical holds the parser to two rules for any input: it
// never panics, and the canonical form of whatever parses is COQL that
// parses back to the same canonical form. EXPLAIN prints canonical text
// for a user to paste back, and the result cache keys on it.
func FuzzParseCanonical(f *testing.F) {
	seeds := []string{
		"",
		`SELECT SEGMENTS FROM german-gp WHERE TEXT CONTAINS 'a\b'`,
		`SELECT SEGMENTS FROM german-gp WHERE TEXT CONTAINS 'say "box"'`,
		`SELECT SEGMENTS FROM german-gp WHERE EVENT('pitstop', driver='SCHUMACHER')`,
		`SELECT SEGMENTS FROM german-gp WHERE EVENT('highlight') ORDER BY CONFIDENCE DESC LIMIT 5`,
		`SELECT SEGMENTS FROM german-gp WHERE EVENT('highlight') WITHIN 12.5 OF EVENT('pitstop')`,
		`SELECT SEGMENTS FROM belgian-gp WHERE FEATURE('dust') > 0.412345678901 AND NOT EVENT('flyout')`,
		`SELECT SEGMENTS FROM scan WHERE FEATURE('s3') <= 0.250000000000`,
		`SELECT SEGMENTS FROM live-gp WHERE EVENT('e2') LAST 30 S`,
		`RETRIEVE EVENTS FROM v WHERE (OBJECT('car') OR TEXT CONTAINS 'pit') BEFORE EVENT("start") ORDER BY START`,
		`select segments from "my video" where feature("x") = 1000000`,
		`select segments from v where event("a", K="'") during event('"')`,
		`select segments from v where feature('x') >= 0.0000001 last .5`,
		"select segments from \xc4\xaa where event(\"a\", \xc4\xaa=\"\xc4\xaa\")",
		`select segments from v where event(`,
		`select segments from v where text contains "unterminated`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			if q != nil {
				t.Fatalf("non-nil query alongside error %v", err)
			}
			if !strings.HasPrefix(err.Error(), "query: ") {
				t.Fatalf("error without query: prefix: %v", err)
			}
			return
		}
		c1 := q.Canonical()
		q2, err := Parse(c1)
		if err != nil {
			t.Fatalf("canonical form of %q does not parse: %q: %v", src, c1, err)
		}
		if c2 := q2.Canonical(); c2 != c1 {
			t.Fatalf("canonical form of %q is not a fixed point:\n%q\n%q", src, c1, c2)
		}
	})
}
