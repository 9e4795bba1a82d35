// Package mil implements an interpreter for a subset of MIL, the Monet
// Interface Language the paper uses at the physical level (Figs. 4 and
// 5b). In the paper Moa operations are rewritten into MIL; extension
// modules (HMM, DBN engines) register builtin functions the way MEL
// modules extend Monet.
//
// The subset covers: VAR declarations and assignment, PROC definitions
// with typed BAT parameters, RETURN, IF/ELSE, WHILE, arithmetic and
// comparison expressions, method-call syntax on BATs (b.insert(h,t),
// b.reverse, parEval.max), the new(head,tail) BAT constructor, and a
// PARALLEL block mirroring Monet's parallel execution operator
// together with the threadcnt(n) setting.
package mil

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokPunct // one of ( ) { } [ ] , ; : .
	tokOp    // := + - * / < > <= >= = != and or not
	tokKeyword
)

// token is a lexical token with position information for diagnostics.
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

var keywords = map[string]bool{
	"var": true, "proc": true, "return": true, "if": true,
	"else": true, "while": true, "parallel": true,
	"true": true, "false": true, "nil": true,
}

// lexer splits MIL source into tokens. '#' starts a comment to end of
// line, matching the paper's listings.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (lx *lexer) errf(line, col int, format string, args ...any) error {
	return fmt.Errorf("mil: %d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) advance() byte {
	b := lx.src[lx.pos]
	lx.pos++
	if b == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return b
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		b := lx.peekByte()
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			lx.advance()
		case b == '#':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: lx.line, col: lx.col}, nil

scan:
	line, col := lx.line, lx.col
	b := lx.peekByte()
	switch {
	case isIdentStart(b):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if keywords[strings.ToLower(text)] {
			return token{kind: tokKeyword, text: strings.ToLower(text), line: line, col: col}, nil
		}
		return token{kind: tokIdent, text: text, line: line, col: col}, nil

	case b >= '0' && b <= '9':
		start := lx.pos
		isFloat := false
		for lx.pos < len(lx.src) {
			c := lx.peekByte()
			if c >= '0' && c <= '9' {
				lx.advance()
				continue
			}
			if c == '.' && !isFloat && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] >= '0' && lx.src[lx.pos+1] <= '9' {
				isFloat = true
				lx.advance()
				continue
			}
			if (c == 'e' || c == 'E') && lx.pos+1 < len(lx.src) {
				nb := lx.src[lx.pos+1]
				if nb >= '0' && nb <= '9' || nb == '-' || nb == '+' {
					isFloat = true
					lx.advance() // e
					lx.advance() // sign or digit
					continue
				}
			}
			break
		}
		kind := tokInt
		if isFloat {
			kind = tokFloat
		}
		return token{kind: kind, text: lx.src[start:lx.pos], line: line, col: col}, nil

	case b == '"':
		lx.advance()
		var sb strings.Builder
		for {
			if lx.pos >= len(lx.src) {
				return token{}, lx.errf(line, col, "unterminated string")
			}
			c := lx.advance()
			if c == '"' {
				break
			}
			if c == '\\' && lx.pos < len(lx.src) {
				e := lx.advance()
				switch e {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '"':
					sb.WriteByte('"')
				case '\\':
					sb.WriteByte('\\')
				default:
					return token{}, lx.errf(line, col, "bad escape \\%c", e)
				}
				continue
			}
			sb.WriteByte(c)
		}
		return token{kind: tokString, text: sb.String(), line: line, col: col}, nil

	case b == ':':
		lx.advance()
		if lx.peekByte() == '=' {
			lx.advance()
			return token{kind: tokOp, text: ":=", line: line, col: col}, nil
		}
		return token{kind: tokPunct, text: ":", line: line, col: col}, nil

	case b == '<' || b == '>' || b == '!':
		lx.advance()
		if lx.peekByte() == '=' {
			lx.advance()
			return token{kind: tokOp, text: string(b) + "=", line: line, col: col}, nil
		}
		if b == '!' {
			return token{}, lx.errf(line, col, "unexpected '!'")
		}
		return token{kind: tokOp, text: string(b), line: line, col: col}, nil

	case b == '=':
		lx.advance()
		if lx.peekByte() == '=' {
			lx.advance()
		}
		return token{kind: tokOp, text: "=", line: line, col: col}, nil

	case strings.IndexByte("+-*/%", b) >= 0:
		lx.advance()
		return token{kind: tokOp, text: string(b), line: line, col: col}, nil

	case strings.IndexByte("(){}[],;.", b) >= 0:
		lx.advance()
		return token{kind: tokPunct, text: string(b), line: line, col: col}, nil
	}
	return token{}, lx.errf(line, col, "unexpected character %q", rune(b))
}

func isIdentStart(b byte) bool {
	return b == '_' || unicode.IsLetter(rune(b))
}

func isIdentPart(b byte) bool {
	return b == '_' || unicode.IsLetter(rune(b)) || b >= '0' && b <= '9'
}

// lexAll tokenizes the entire source.
func lexAll(src string) ([]token, error) {
	lx := newLexer(src)
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
