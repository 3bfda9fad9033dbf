package query

import (
	"slices"
	"testing"
)

// HDBL text reaches the parser straight from shell users, so the lexer and
// the statement parser are fuzzed like the wire decoders. The seed corpus
// under testdata/fuzz (the three colockbench local-query statement shapes
// and the statements of this package's tests) runs on every `go test`.

// FuzzLex holds lex to the reference lexer in lexer_ref_test.go: the same
// tokens for every input the reference accepts, and the same error for
// every input it rejects.
func FuzzLex(f *testing.F) {
	f.Add(q1Src)
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := lexRef(input)
		got, err := lex(input)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("lex(%q) error %v, reference error %v", input, err, wantErr)
			}
			return
		}
		if !slices.Equal(got, want) {
			t.Fatalf("lex(%q)\n got %v\nwant %v", input, got, want)
		}
	})
}

// FuzzParseStatement: no input panics any of the parser's entry points.
func FuzzParseStatement(f *testing.F) {
	f.Add(q2Src)
	f.Fuzz(func(t *testing.T, input string) {
		_, _ = ParseStatement(input)
		_, _ = Parse(input)
		_, _ = ParseCreate(input)
	})
}
