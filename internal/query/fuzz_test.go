package query

import (
	"context"
	"math"
	"strings"
	"testing"

	"cobra/internal/cobra"
	"cobra/internal/monet"
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

// FuzzFeatureLeaf grows a feature series in chunks and holds the
// FEATURE leaf to its definition at every watermark: a standing query
// carried across the appends, a one-shot query over the whole series
// and oracleFeature must render the same segments, for every operator
// and any threshold — NaN and ±Inf included, which COQL text cannot
// write — over samples salted with NaN, ±0 and ±Inf. Each byte of
// series is one sample value repeated stretch%512+1 times, so a long
// stretch crosses the kernel's index threshold; each byte of chunks
// sizes one append, in source samples.
func FuzzFeatureLeaf(f *testing.F) {
	f.Add([]byte("\x01\x03\x05\x05\x05\x02\xc0\x06\x06\x06\x06\xc1\xc2"), []byte{2, 5, 1}, uint8(0), 0.5, uint16(3))
	f.Fuzz(func(t *testing.T, series, chunks []byte, op uint8, thr float64, stretch uint16) {
		const rate = 10.0
		specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
		rep := int(stretch)%512 + 1
		var vals []float64
		for _, b := range series[:min(len(series), 256)] {
			v := float64(b%8)/2 - 1
			if b >= 0xc0 {
				v = specials[int(b)%len(specials)]
			}
			for range rep {
				vals = append(vals, v)
			}
		}
		cat := cobra.NewCatalog(monet.NewStore())
		if err := cat.PutVideo(cobra.Video{Name: "v", Duration: 1, FPS: 25}); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(cobra.NewPreprocessor(cat))
		leaf := &FeatureCond{Name: "x", Op: []string{">", ">=", "<", "<=", "="}[int(op)%5], Val: thr}
		q := &Query{Target: "segments", Video: "v", Where: leaf}
		standing := NewIncremental(eng, q)
		render := func(res []Result) string {
			var b []byte
			for _, r := range res {
				b = append(AppendResult(b, r), '\n')
			}
			return string(b)
		}
		for from, k := 0, 0; from < len(vals); k++ {
			to := len(vals)
			if len(chunks) > 0 {
				to = min(from+max((int(chunks[k%len(chunks)])+1)*rep, len(vals)/64), to)
			}
			if _, err := cat.AppendFeatureSamples("v", "x", rate, vals[from:to]); err != nil {
				t.Fatal(err)
			}
			if err := cat.SetDuration("v", float64(to)/rate); err != nil {
				t.Fatal(err)
			}
			from = to
			got, err := standing.Eval(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			once, err := eng.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			want := render(oracleFeature(vals[:to], rate, leaf.Op, thr))
			if g, o := render(got), render(once); g != want || o != want {
				t.Fatalf("FEATURE %s %v at %d of %d samples:\nstanding:\n%s\none-shot:\n%s\noracle:\n%s", leaf.Op, thr, to, len(vals), g, o, want)
			}
		}
	})
}
