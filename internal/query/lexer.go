// Package query implements a small HDBL-flavoured query language for
// complex objects — the language of the paper's Figure 3 examples:
//
//	SELECT o
//	FROM c IN cells, o IN c.c_objects
//	WHERE c.cell_id = 'c1'
//	FOR READ
//
// It provides the lexer, a recursive-descent parser, the AST, the query
// analyzer that resolves bindings against a schema catalog and produces the
// planner's QuerySpec (the input of §4.5's "optimal" lock-request
// determination), and the executor that evaluates a query inside a
// transaction, requesting locks from the query-specific lock plan.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokString
	tokNumber
	tokSymbol // . , = <> < > <= >= { } ( ) :
)

type token struct {
	kind tokKind
	text string // keywords are upper-cased, symbols canonical
	pos  int    // byte offset for error messages
}

// keywords maps each keyword's upper-case spelling to itself, so the lexer
// can hand out the canonical string without building one per token.
var keywords = map[string]string{}

// maxKeywordLen bounds the keywords' length; longer words are identifiers
// without a lookup.
const maxKeywordLen = 8

func init() {
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "AND", "FOR", "READ", "UPDATE", "IN",
		"NOFOLLOW", "TRUE", "FALSE",
		// DML statements and value literals:
		"DELETE", "INSERT", "INTO", "VALUE", "SET", "LIST", "REF",
		// DDL:
		"CREATE", "RELATION", "SEGMENT", "KEY",
	} {
		if len(kw) > maxKeywordLen {
			panic("query: keyword " + kw + " is longer than maxKeywordLen")
		}
		keywords[kw] = kw
	}
}

// keyword returns the canonical keyword a word spells, case-insensitively,
// or "" if it is an identifier. It allocates nothing: the word is
// upper-cased into a stack buffer. A word with a non-ASCII byte is never a
// keyword: no rune such a word can spell upper-cases to ASCII.
func keyword(word string) string {
	if len(word) > maxKeywordLen {
		return ""
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		switch {
		case c >= 0x80:
			return ""
		case 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(word)])]
}

// maxPresizedTokens bounds the token slice lex reserves before it starts.
const maxPresizedTokens = 64

// lex splits the input into tokens.
func lex(input string) ([]token, error) {
	// Statements average over three bytes per token; sizing for that
	// avoids regrowing the slice on the common path. The cap keeps a long
	// input from reserving its worst case up front.
	toks := make([]token, 0, min(len(input)/3+2, maxPresizedTokens))
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			j := i + 1
			for j < len(input) && input[j] != '\'' {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("query: unterminated string at offset %d", i)
			}
			toks = append(toks, token{tokString, input[i+1 : j], i})
			i = j + 1
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			word := input[i:j]
			if kw := keyword(word); kw != "" {
				toks = append(toks, token{tokKeyword, kw, i})
			} else {
				toks = append(toks, token{tokIdent, word, i})
			}
			i = j
		case unicode.IsDigit(c) || (c == '-' && i+1 < len(input) && unicode.IsDigit(rune(input[i+1]))):
			j := i + 1
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case c == '<':
			switch {
			case strings.HasPrefix(input[i:], "<>"):
				toks = append(toks, token{tokSymbol, "<>", i})
				i += 2
			case strings.HasPrefix(input[i:], "<="):
				toks = append(toks, token{tokSymbol, "<=", i})
				i += 2
			default:
				toks = append(toks, token{tokSymbol, "<", i})
				i++
			}
		case c == '>':
			if strings.HasPrefix(input[i:], ">=") {
				toks = append(toks, token{tokSymbol, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, ">", i})
				i++
			}
		case c == '=' || c == '.' || c == ',' || c == '{' || c == '}' ||
			c == '(' || c == ')' || c == ':':
			toks = append(toks, token{tokSymbol, input[i : i+1], i})
			i++
		default:
			return nil, fmt.Errorf("query: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}
