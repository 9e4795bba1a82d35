// Package query implements COQL, the conceptual-level query language
// of the Cobra VDBMS (§5.6). Queries select video segments by event
// predicates, recognized caption text, raw feature thresholds and
// temporal relationships; the engine asks the query preprocessor to
// materialize any missing metadata before evaluation (dynamic
// feature/semantic extraction, §2).
//
// Examples from the paper, in COQL:
//
//	SELECT SEGMENTS FROM german-gp WHERE EVENT('pitstop', driver='BARRICHELLO')
//	SELECT SEGMENTS FROM german-gp WHERE EVENT('highlight') AND TEXT CONTAINS 'SCHUMACHER'
//	SELECT SEGMENTS FROM german-gp WHERE EVENT('flyout') OR FEATURE('dust') > 0.5
//	SELECT SEGMENTS FROM german-gp WHERE EVENT('highlight') WITHIN 10 OF EVENT('pitstop')
package query

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tString
	tNumber
	tPunct // ( ) , =
	tOp    // > >= < <=
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// keywords are case-insensitive.
var keywords = map[string]bool{
	"select": true, "retrieve": true, "segments": true, "events": true,
	"from": true, "where": true, "and": true, "or": true, "not": true,
	"event": true, "text": true, "contains": true, "feature": true,
	"object": true,
	"within": true, "of": true, "before": true, "after": true,
	"during": true, "overlaps": true, "meets": true, "s": true,
	"order": true, "by": true, "confidence": true, "start": true,
	"desc": true, "asc": true, "limit": true, "last": true,
}

func lex(src string) ([]token, error) {
	// One allocation for the usual statement (COQL runs to about five
	// source bytes per token): every request, cached or not, is lexed.
	toks := make([]token, 0, len(src)/4+4)
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(src) && src[j] != quote {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("query: %d: unterminated string", i)
			}
			toks = append(toks, token{kind: tString, text: src[i+1 : j], pos: i})
			i = j + 1
		case c >= '0' && c <= '9' || c == '.':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tNumber, text: src[i:j], pos: i})
			i = j
		case c == '(' || c == ')' || c == ',' || c == '=':
			toks = append(toks, token{kind: tPunct, text: string(c), pos: i})
			i++
		case c == '>' || c == '<':
			j := i + 1
			if j < len(src) && src[j] == '=' {
				j++
			}
			toks = append(toks, token{kind: tOp, text: src[i:j], pos: i})
			i = j
		case identStart(c):
			j := i
			for j < len(src) && identByte(src[j]) {
				j++
			}
			toks = append(toks, token{kind: tIdent, text: src[i:j], pos: i})
			i = j
		default:
			return nil, fmt.Errorf("query: %d: unexpected character %q", i, rune(c))
		}
	}
	toks = append(toks, token{kind: tEOF, pos: len(src)})
	return toks, nil
}

// identStart and identByte say which bytes begin and continue an
// ident. They test single bytes, so a byte at or above 0x80 counts as
// its Latin-1 character.
func identStart(c byte) bool { return unicode.IsLetter(rune(c)) || c == '_' }

func identByte(c byte) bool {
	return identStart(c) || unicode.IsDigit(rune(c)) || c == '-'
}

// isIdent reports whether s lexes as exactly one ident token.
func isIdent(s string) bool {
	if s == "" || !identStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !identByte(s[i]) {
			return false
		}
	}
	return true
}

// isKeyword matches an ident token against a keyword,
// case-insensitively.
func (t token) isKeyword(kw string) bool {
	return t.kind == tIdent && strings.EqualFold(t.text, kw) && keywords[strings.ToLower(kw)]
}
