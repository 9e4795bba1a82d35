package query

import (
	"math"
	"sort"
	"strconv"
)

// AppendResult appends one result segment in the wire format shared by
// one-shot COQL responses and streaming notifications:
//
//	<start> <end> <confidence> <attrs>
//
// with start and end to one decimal, confidence to three, and attrs
// comma-joined as key=value pairs in key order, or "-" when the
// segment carries none. No newline is appended. The streaming
// acceptance criterion — a SUBSCRIBE notification is byte-identical to
// a one-shot query at the same watermark — is checked against this
// rendering, and the result cache stores it verbatim.
func AppendResult(buf []byte, r Result) []byte {
	buf = appendFixed(buf, r.Interval.Start, 1)
	buf = append(buf, ' ')
	buf = appendFixed(buf, r.Interval.End, 1)
	buf = append(buf, ' ')
	buf = appendFixed(buf, r.Confidence, 3)
	buf = append(buf, ' ')
	return appendAttrs(buf, r.Attrs)
}

// FormatResult renders one result segment as AppendResult does.
func FormatResult(r Result) string {
	return string(AppendResult(make([]byte, 0, 48), r))
}

func appendAttrs(buf []byte, attrs map[string]string) []byte {
	switch len(attrs) {
	case 0:
		return append(buf, '-')
	case 1:
		for k, v := range attrs {
			buf = append(append(append(buf, k...), '='), v...)
		}
		return buf
	}
	parts := make([]string, 0, len(attrs))
	for k, v := range attrs {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	for i, p := range parts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, p...)
	}
	return buf
}

// pow10 holds the powers of ten appendFixed scales by; each is exact
// in a float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// fixedLimit bounds the scaled values appendFixed rounds itself. Below
// it every half-integer is a float64, so rounding the product |x|·10^prec
// to a float64 never carries it across the tie nearest to it: the
// product lands on the tie's side the exact decimal value of x is on,
// or on the tie itself, which goes to strconv.
const fixedLimit = 1 << 40

// appendFixed appends x with prec digits after the decimal point,
// byte-identical to strconv.AppendFloat(buf, x, 'f', prec, 64). With
// an explicit precision strconv always takes its big-decimal path;
// here |x|·10^prec is rounded to an integer and printed with the point
// inserted. strconv rounds exact ties to even and math.Round away from
// zero, so a scaled value within 1e-6 of a tie goes to strconv, as do
// values of 2^40 and up, NaN and the infinities. The sign comes from
// the sign bit, so -0.04 prints "-0.0" as strconv does.
func appendFixed(buf []byte, x float64, prec int) []byte {
	if prec < 0 || prec >= len(pow10) || math.IsNaN(x) || math.IsInf(x, 0) {
		return strconv.AppendFloat(buf, x, 'f', prec, 64)
	}
	y := math.Abs(x) * pow10[prec]
	if y >= fixedLimit || math.Abs(y-math.Floor(y)-0.5) < 1e-6 {
		return strconv.AppendFloat(buf, x, 'f', prec, 64)
	}
	if math.Signbit(x) {
		buf = append(buf, '-')
	}
	var tmp [24]byte
	digits := strconv.AppendUint(tmp[:0], uint64(math.Round(y)), 10)
	n := len(digits)
	if n <= prec {
		buf = append(buf, '0', '.')
		for ; n < prec; n++ {
			buf = append(buf, '0')
		}
		return append(buf, digits...)
	}
	buf = append(buf, digits[:n-prec]...)
	if prec > 0 {
		buf = append(append(buf, '.'), digits[n-prec:]...)
	}
	return buf
}
