package query

import (
	"fmt"
	"strings"
	"unicode"
)

// The lexer as it was before it stopped allocating per keyword, kept
// verbatim as the reference FuzzLex holds lex to: for any input, lex must
// return exactly lexRef's tokens, or fail where lexRef fails.

var keywordsRef = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true,
	"FOR": true, "READ": true, "UPDATE": true, "IN": true,
	"NOFOLLOW": true, "TRUE": true, "FALSE": true,
	// DML statements and value literals:
	"DELETE": true, "INSERT": true, "INTO": true, "VALUE": true,
	"SET": true, "LIST": true, "REF": true,
	// DDL:
	"CREATE": true, "RELATION": true, "SEGMENT": true, "KEY": true,
}

// lexRef splits the input into tokens.
func lexRef(input string) ([]token, error) {
	var toks []token
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
			upper := strings.ToUpper(word)
			if keywordsRef[upper] {
				toks = append(toks, token{tokKeyword, upper, i})
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
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("query: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}
