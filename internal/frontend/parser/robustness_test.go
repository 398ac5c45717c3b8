package parser

import (
	"math/rand"
	"strings"
	"testing"
)

// TestNeverPanics feeds the parser adversarial inputs: random token soup,
// truncated real programs, and deeply nested expressions. The contract is
// total: any input produces an (AST, error) pair, never a panic.
func TestNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	pieces := []string{
		"int", "void", "struct", "if", "else", "while", "goto", "return",
		"(", ")", "{", "}", ";", ",", "->", ".", "=", "==", "&&", "||",
		"foo", "bar", "42", "0x1F", `"str"`, "'c'", "!", "&", "*", "+",
		"assert", "random", "NULL", "case", "switch", "default", ":",
	}
	for trial := 0; trial < 500; trial++ {
		var b strings.Builder
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
			b.WriteByte(' ')
			if rng.Intn(10) == 0 {
				b.WriteByte('\n')
			}
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %q: %v", src, r)
				}
			}()
			ParseFile("fuzz.c", src)
		}()
	}
}

func TestTruncatedPrograms(t *testing.T) {
	full := `
int foo(struct device *dev) {
    int v = reg_read(dev, 0x54);
    if (v <= 0)
        goto exit;
    inc_pmcount(dev);
exit:
    return 0;
}
`
	for i := 0; i <= len(full); i += 3 {
		src := full[:i]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncation at %d: %v", i, r)
				}
			}()
			ParseFile("trunc.c", src)
		}()
	}
}

func TestDeepNesting(t *testing.T) {
	// 200 nested parens and blocks must not blow the stack or livelock.
	src := "int f(int a) { return " + strings.Repeat("(", 200) + "a" + strings.Repeat(")", 200) + "; }"
	if _, err := ParseFile("deep.c", src); err != nil {
		t.Fatalf("deep parens: %v", err)
	}
	src2 := "void g(int a) " + strings.Repeat("{ if (a > 0) ", 150) + ";" + strings.Repeat("}", 150)
	ParseFile("deep2.c", src2) // errors are fine; panics are not
}

// TestNestingLimits pins each nesting bound at the limit and one past it.
// A return statement's expression starts two recursion frames deep
// (parseExpr, parseUnary) and each parenthesis adds two more; each prefix
// operator adds one node level over its operand; each nested block adds
// one statement level over the statement inside it.
func TestNestingLimits(t *testing.T) {
	nots := func(n int) string { return "int f(int a) { return " + strings.Repeat("!", n) + "a; }" }
	parens := func(n int) string {
		return "int f(int a) { return " + strings.Repeat("(", n) + "a" + strings.Repeat(")", n) + "; }"
	}
	blocks := func(n int) string {
		return "void f(void) { " + strings.Repeat("{", n) + ";" + strings.Repeat("}", n) + " }"
	}
	cases := []struct {
		name string
		src  string
		want string // "" means the file must parse
	}{
		{"unary at limit", nots(maxNesting - 1), ""},
		{"unary past limit", nots(maxNesting), "expression nested too deeply"},
		{"parens at limit", parens((maxRecursion - 2) / 2), ""},
		{"parens past limit", parens((maxRecursion-2)/2 + 1), "expression recursion nested too deeply"},
		{"blocks at limit", blocks(maxNesting - 1), ""},
		{"blocks past limit", blocks(maxNesting), "statements nested too deeply"},
	}
	for _, tc := range cases {
		f, err := ParseFile("deep.c", tc.src)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		case tc.want != "" && !strings.HasPrefix(err.Error(), "deep.c:1:"):
			t.Errorf("%s: error %q is not positioned", tc.name, err)
		case tc.want != "" && strings.Contains(err.Error(), "\n"):
			t.Errorf("%s: want exactly one error, got %q", tc.name, err)
		case tc.want != "" && len(f.Decls) != 0:
			t.Errorf("%s: the abandoned function must not be returned", tc.name)
		}
	}
}

func TestEmptyAndWhitespaceOnly(t *testing.T) {
	for _, src := range []string{"", "   ", "\n\n\n", "// only a comment\n", "/* block */"} {
		f, err := ParseFile("empty.c", src)
		if err != nil {
			t.Errorf("input %q: %v", src, err)
		}
		if len(f.Decls) != 0 {
			t.Errorf("input %q produced decls", src)
		}
	}
}
