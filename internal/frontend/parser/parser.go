// Package parser implements a recursive-descent parser for the mini-C
// language. It is resilient: on a syntax error it records a diagnostic,
// resynchronizes at the next statement or declaration boundary, and keeps
// going, so a large generated corpus parses in one pass.
package parser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/frontend/ast"
	"repro/internal/frontend/lexer"
	"repro/internal/frontend/token"
)

// Nesting bounds, so that no input overflows the stack here or in the
// recursive passes over the AST: statements and expression trees nest at
// most maxNesting deep. Parentheses, casts and prefix operators recurse
// before any node exists, so expression descent is also capped, at
// maxRecursion frames: room for the printed form of any accepted tree,
// which parenthesizes every operator.
const (
	maxNesting   = 1000
	maxRecursion = 4 * maxNesting
)

// Parser parses one translation unit.
type Parser struct {
	toks   []token.Token
	pos    int
	file   string
	errs   []error
	panics int // consecutive resync count, to guarantee progress

	stmts, frames int // statement and expression recursion depth
	ed            int // node depth of the expression parsed last
}

// tooDeep abandons a file that crossed a nesting bound (see deepen).
type tooDeep struct{}

// ParseFile lexes and parses src, returning the AST and any accumulated
// syntax errors (the AST is still usable when errors are non-nil, covering
// the declarations that parsed cleanly).
func ParseFile(filename, src string) (*ast.File, error) {
	lx := lexer.New(filename, src)
	p := &Parser{toks: lx.All(), file: filename}
	f := p.parseFile()
	errs := append(lx.Errors(), p.errs...)
	if len(errs) > 0 {
		return f, errors.Join(errs...)
	}
	return f, nil
}

func (p *Parser) cur() token.Token { return p.toks[p.pos] }
func (p *Parser) peek() token.Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() token.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...)))
}

// deepen increments the depth *n; past limit it records a positioned
// error and abandons the file, keeping the declarations before it.
func (p *Parser) deepen(n *int, limit int, what string) {
	if *n++; *n > limit {
		p.errorf("%s nested too deeply (limit %d)", what, limit)
		panic(tooDeep{})
	}
}

// nest returns the node depth of an expression over children at most d
// deep.
func (p *Parser) nest(d int) int {
	p.deepen(&d, maxNesting, "expression")
	return d
}

// sync skips tokens until a likely statement/declaration boundary: a
// semicolon or closing brace at the current nesting level, or — since brace
// counting is unreliable after a syntax error — a type keyword at the start
// of a line, which in this corpus always begins a new top-level declaration.
func (p *Parser) sync() {
	p.panics++
	depth := 0
	first := true
	for {
		t := p.cur()
		if !first && t.Pos.Column == 1 && t.Kind.IsTypeKeyword() {
			return
		}
		first = false
		switch t.Kind {
		case token.EOF:
			return
		case token.LBRACE:
			depth++
		case token.RBRACE:
			if depth == 0 {
				return
			}
			depth--
		case token.SEMI:
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Declarations

func (p *Parser) parseFile() (f *ast.File) {
	f = &ast.File{Name: p.file}
	defer func() {
		if r := recover(); r != nil && r != (tooDeep{}) {
			panic(r)
		}
	}()
	for !p.at(token.EOF) {
		before := p.pos
		d := p.parseTopDecl(f)
		if d != nil {
			f.Decls = append(f.Decls, d)
		}
		if p.pos == before { // no progress: drop a token to avoid livelock
			p.errorf("unexpected token %s", p.cur())
			p.next()
		}
	}
	return f
}

// parseTopDecl parses one top-level declaration. Struct declarations are
// stored on the file and nil is returned for them.
func (p *Parser) parseTopDecl(f *ast.File) ast.Decl {
	pos := p.cur().Pos
	extern := p.accept(token.KwExtern)
	static := p.accept(token.KwStatic)
	// A struct declaration: struct tag { ... };
	if p.at(token.KwStruct) && p.peek().Kind == token.IDENT {
		// Lookahead for "struct tag {" or "struct tag ;"
		if p.toks[p.pos+2].Kind == token.LBRACE || p.toks[p.pos+2].Kind == token.SEMI {
			sd := p.parseStructDecl()
			if sd != nil {
				f.Structs = append(f.Structs, sd)
			}
			return nil
		}
	}
	typ, ok := p.parseType()
	if !ok {
		p.errorf("expected declaration, found %s", p.cur())
		p.sync()
		return nil
	}
	name := p.expect(token.IDENT).Lit
	if p.at(token.LPAREN) {
		return p.parseFuncRest(typ, name, pos, extern, static)
	}
	// Top-level variable.
	var init ast.Expr
	if p.accept(token.ASSIGN) {
		init = p.parseExpr()
	}
	p.expect(token.SEMI)
	return &ast.VarDecl{Type: typ, Name: name, Init: init, P: pos}
}

func (p *Parser) parseStructDecl() *ast.StructDecl {
	pos := p.expect(token.KwStruct).Pos
	tag := p.expect(token.IDENT).Lit
	sd := &ast.StructDecl{Tag: tag, P: pos}
	if p.accept(token.SEMI) { // opaque forward declaration
		return sd
	}
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		ft, ok := p.parseType()
		if !ok {
			p.errorf("expected field type, found %s", p.cur())
			p.sync()
			break
		}
		fname := p.expect(token.IDENT).Lit
		sd.Fields = append(sd.Fields, &ast.Param{Type: ft, Name: fname, P: pos})
		p.expect(token.SEMI)
	}
	p.expect(token.RBRACE)
	p.expect(token.SEMI)
	return sd
}

// parseType parses a type specifier; reports ok=false if the current token
// cannot begin a type.
func (p *Parser) parseType() (ast.Type, bool) {
	var t ast.Type
	// Skip qualifiers.
	for p.at(token.KwConst) || p.at(token.KwUnsigned) || p.at(token.KwStatic) {
		p.next()
	}
	switch p.cur().Kind {
	case token.KwInt, token.KwLong, token.KwChar, token.KwVoid, token.KwBool:
		t.Name = p.next().Kind.String()
		// long long, unsigned long ...
		for p.at(token.KwLong) || p.at(token.KwInt) {
			p.next()
		}
	case token.KwStruct:
		p.next()
		t.Struct = true
		t.Name = p.expect(token.IDENT).Lit
	case token.IDENT:
		// Typedef-style names used by corpora: irqreturn_t, PyObject, size_t...
		// Accepted only when followed by '*' or an identifier, to avoid
		// swallowing expression identifiers.
		if p.peek().Kind == token.STAR || p.peek().Kind == token.IDENT {
			t.Name = p.next().Lit
		} else {
			return t, false
		}
	default:
		return t, false
	}
	for p.at(token.KwConst) {
		p.next()
	}
	for p.accept(token.STAR) {
		t.Pointer++
		for p.at(token.KwConst) {
			p.next()
		}
	}
	return t, true
}

func (p *Parser) parseFuncRest(result ast.Type, name string, pos token.Pos, extern, static bool) ast.Decl {
	p.expect(token.LPAREN)
	fd := &ast.FuncDecl{Result: result, Name: name, Extern: extern, Static: static, P: pos}
	if !p.at(token.RPAREN) {
		if p.at(token.KwVoid) && p.peek().Kind == token.RPAREN {
			p.next() // f(void)
		} else {
			for {
				ppos := p.cur().Pos
				pt, ok := p.parseType()
				if !ok {
					p.errorf("expected parameter type, found %s", p.cur())
					p.sync()
					return fd
				}
				pname := ""
				if p.at(token.IDENT) {
					pname = p.next().Lit
				}
				fd.Params = append(fd.Params, &ast.Param{Type: pt, Name: pname, P: ppos})
				if !p.accept(token.COMMA) {
					break
				}
			}
		}
	}
	p.expect(token.RPAREN)
	if p.accept(token.SEMI) {
		return fd // prototype
	}
	fd.Body = p.parseBlock()
	return fd
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() *ast.BlockStmt {
	b := &ast.BlockStmt{P: p.cur().Pos}
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		before := p.pos
		s := p.parseStmt()
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.pos == before {
			p.errorf("unexpected token %s in block", p.cur())
			p.next()
		}
	}
	p.expect(token.RBRACE)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	p.deepen(&p.stmts, maxNesting, "statements")
	defer func() { p.stmts-- }()
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.SEMI:
		p.next()
		return &ast.EmptyStmt{P: pos}
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwDo:
		return p.parseDoWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwSwitch:
		return p.parseSwitch()
	case token.KwGoto:
		p.next()
		lbl := p.expect(token.IDENT).Lit
		p.expect(token.SEMI)
		return &ast.GotoStmt{Label: lbl, P: pos}
	case token.KwReturn:
		p.next()
		var x ast.Expr
		if !p.at(token.SEMI) {
			x = p.parseExpr()
		}
		p.expect(token.SEMI)
		return &ast.ReturnStmt{X: x, P: pos}
	case token.KwBreak:
		p.next()
		p.expect(token.SEMI)
		return &ast.BreakStmt{P: pos}
	case token.KwContinue:
		p.next()
		p.expect(token.SEMI)
		return &ast.ContinueStmt{P: pos}
	case token.KwAssert:
		p.next()
		p.expect(token.LPAREN)
		x := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return &ast.AssertStmt{X: x, P: pos}
	case token.KwAsm:
		p.next()
		p.expect(token.LPAREN)
		txt := ""
		if p.at(token.STRING) {
			txt = p.next().Lit
		}
		// Swallow any extended-asm operand soup up to the closing paren.
		depth := 1
		for depth > 0 && !p.at(token.EOF) {
			switch p.cur().Kind {
			case token.LPAREN:
				depth++
			case token.RPAREN:
				depth--
				if depth == 0 {
					p.next()
					p.expect(token.SEMI)
					return &ast.AsmStmt{Text: txt, P: pos}
				}
			}
			p.next()
		}
		return &ast.AsmStmt{Text: txt, P: pos}
	case token.IDENT:
		// Either a label, a typedef-name declaration, or an expression.
		if p.peek().Kind == token.COLON {
			name := p.next().Lit
			p.next() // ':'
			var inner ast.Stmt
			if p.at(token.RBRACE) {
				inner = &ast.EmptyStmt{P: pos} // label at end of block
			} else {
				inner = p.parseStmt()
			}
			return &ast.LabeledStmt{Label: name, Stmt: inner, P: pos}
		}
		if p.looksLikeDecl() {
			return p.parseDeclStmt()
		}
		return p.parseExprStmt()
	default:
		if p.cur().Kind.IsTypeKeyword() {
			return p.parseDeclStmt()
		}
		return p.parseExprStmt()
	}
}

// looksLikeDecl reports whether "IDENT IDENT" or "IDENT *" begins a
// declaration with a typedef-style type name.
func (p *Parser) looksLikeDecl() bool {
	if p.cur().Kind != token.IDENT {
		return false
	}
	k := p.peek().Kind
	if k == token.IDENT {
		return true
	}
	if k == token.STAR {
		// "x * y;" is ambiguous in C; in this corpus a multiplication
		// statement is meaningless, so treat as declaration only when the
		// token after the stars is IDENT followed by ';' or '='.
		i := p.pos + 1
		for i < len(p.toks) && p.toks[i].Kind == token.STAR {
			i++
		}
		if i < len(p.toks) && p.toks[i].Kind == token.IDENT {
			j := p.toks[i+1].Kind
			return j == token.SEMI || j == token.ASSIGN || j == token.COMMA
		}
	}
	return false
}

func (p *Parser) parseDeclStmt() ast.Stmt {
	pos := p.cur().Pos
	typ, ok := p.parseType()
	if !ok {
		p.errorf("expected type in declaration, found %s", p.cur())
		p.sync()
		return nil
	}
	// Possibly several declarators: int a = 1, b;
	var stmts []ast.Stmt
	for {
		name := p.expect(token.IDENT).Lit
		var init ast.Expr
		if p.accept(token.ASSIGN) {
			init = p.parseExpr()
		}
		stmts = append(stmts, &ast.DeclStmt{Type: typ, Name: name, Init: init, P: pos})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.SEMI)
	if len(stmts) == 1 {
		return stmts[0]
	}
	return &ast.BlockStmt{Stmts: stmts, P: pos}
}

func (p *Parser) parseExprStmt() ast.Stmt {
	pos := p.cur().Pos
	x := p.parseExpr()
	p.expect(token.SEMI)
	return &ast.ExprStmt{X: x, P: pos}
}

func (p *Parser) parseIf() ast.Stmt {
	pos := p.expect(token.KwIf).Pos
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseStmt()
	var els ast.Stmt
	if p.accept(token.KwElse) {
		els = p.parseStmt()
	}
	return &ast.IfStmt{Cond: cond, Then: then, Else: els, P: pos}
}

func (p *Parser) parseWhile() ast.Stmt {
	pos := p.expect(token.KwWhile).Pos
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	body := p.parseStmt()
	return &ast.WhileStmt{Cond: cond, Body: body, P: pos}
}

func (p *Parser) parseDoWhile() ast.Stmt {
	pos := p.expect(token.KwDo).Pos
	body := p.parseStmt()
	p.expect(token.KwWhile)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.SEMI)
	return &ast.DoWhileStmt{Body: body, Cond: cond, P: pos}
}

func (p *Parser) parseFor() ast.Stmt {
	pos := p.expect(token.KwFor).Pos
	p.expect(token.LPAREN)
	f := &ast.ForStmt{P: pos}
	if !p.at(token.SEMI) {
		if p.cur().Kind.IsTypeKeyword() || p.looksLikeDecl() {
			f.Init = p.parseDeclStmt() // consumes the ';'
		} else {
			x := p.parseExpr()
			f.Init = &ast.ExprStmt{X: x, P: pos}
			p.expect(token.SEMI)
		}
	} else {
		p.expect(token.SEMI)
	}
	if !p.at(token.SEMI) {
		f.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if !p.at(token.RPAREN) {
		f.Post = p.parseExpr()
	}
	p.expect(token.RPAREN)
	f.Body = p.parseStmt()
	return f
}

func (p *Parser) parseSwitch() ast.Stmt {
	pos := p.expect(token.KwSwitch).Pos
	p.expect(token.LPAREN)
	tag := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	sw := &ast.SwitchStmt{Tag: tag, P: pos}
	var cur *ast.CaseClause
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		switch {
		case p.accept(token.KwCase):
			v := p.parseExpr()
			p.expect(token.COLON)
			cur = &ast.CaseClause{Value: v, P: pos}
			sw.Cases = append(sw.Cases, cur)
		case p.accept(token.KwDefault):
			p.expect(token.COLON)
			cur = &ast.CaseClause{IsDefault: true, P: pos}
			sw.Cases = append(sw.Cases, cur)
		default:
			s := p.parseStmt()
			if cur == nil {
				p.errorf("statement before first case in switch")
				cur = &ast.CaseClause{IsDefault: true, P: pos}
				sw.Cases = append(sw.Cases, cur)
			}
			if s != nil {
				cur.Body = append(cur.Body, s)
			}
		}
	}
	p.expect(token.RBRACE)
	return sw
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

// parseExpr parses an expression including assignment (lowest precedence,
// right-associative).
func (p *Parser) parseExpr() ast.Expr {
	p.deepen(&p.frames, maxRecursion, "expression recursion")
	defer func() { p.frames-- }()
	lhs := p.parseTernary()
	switch p.cur().Kind {
	case token.ASSIGN, token.PLUSASSIGN, token.MINUSASSIGN:
		d := p.ed
		op := p.next().Kind
		rhs := p.parseExpr()
		p.ed = p.nest(max(d, p.ed))
		return &ast.AssignExpr{Op: op, LHS: lhs, RHS: rhs, P: lhs.Pos()}
	}
	return lhs
}

// parseTernary parses the conditional-expression level. The mini-C grammar
// has no '?:' operator (generated corpora use explicit if/else), so this is
// currently the binary-expression level; the hook keeps the precedence
// ladder explicit for future extension.
func (p *Parser) parseTernary() ast.Expr {
	return p.parseBinary(0)
}

// binary operator precedence, loosest (0) to tightest.
var precedence = map[token.Kind]int{
	token.LOR:  1,
	token.LAND: 2,
	token.PIPE: 3, token.CARET: 4, token.AMP: 5,
	token.EQ: 6, token.NE: 6,
	token.LT: 7, token.LE: 7, token.GT: 7, token.GE: 7,
	token.SHL: 8, token.SHR: 8,
	token.PLUS: 9, token.MINUS: 9,
	token.STAR: 10, token.SLASH: 10, token.PERCENT: 10,
}

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	d := p.ed
	for {
		op := p.cur().Kind
		prec, ok := precedence[op]
		if !ok || prec < minPrec {
			p.ed = d
			return lhs
		}
		pos := p.next().Pos
		rhs := p.parseBinary(prec + 1)
		d = p.nest(max(d, p.ed))
		lhs = &ast.BinaryExpr{Op: op, X: lhs, Y: rhs, P: pos}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	p.deepen(&p.frames, maxRecursion, "expression recursion")
	defer func() { p.frames-- }()
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.NOT, token.MINUS, token.TILDE, token.STAR, token.AMP, token.PLUS:
		op := p.next().Kind
		x := p.parseUnary()
		if op == token.PLUS {
			return x
		}
		p.ed = p.nest(p.ed)
		return &ast.UnaryExpr{Op: op, X: x, P: pos}
	case token.PLUSPLUS, token.MINUSMINUS:
		op := p.next().Kind
		x := p.parseUnary()
		p.ed = p.nest(p.ed)
		return &ast.IncDecExpr{Op: op, X: x, P: pos}
	case token.KwSizeof:
		p.next()
		if p.accept(token.LPAREN) {
			// sizeof(type) or sizeof(expr): swallow to matching paren.
			depth := 1
			for depth > 0 && !p.at(token.EOF) {
				switch p.cur().Kind {
				case token.LPAREN:
					depth++
				case token.RPAREN:
					depth--
				}
				p.next()
			}
		} else {
			p.parseUnary()
		}
		// Abstract sizeof as an unknown positive — a random value.
		p.ed = 1
		return &ast.RandomExpr{P: pos}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		pos := p.cur().Pos
		switch p.cur().Kind {
		case token.ARROW:
			p.next()
			name := p.expect(token.IDENT).Lit
			x = &ast.FieldExpr{X: x, Name: name, Arrow: true, P: pos}
		case token.DOT:
			p.next()
			name := p.expect(token.IDENT).Lit
			x = &ast.FieldExpr{X: x, Name: name, P: pos}
		case token.LBRACK:
			p.next()
			d := p.ed
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			p.ed = max(d, p.ed)
			x = &ast.IndexExpr{X: x, Index: idx, P: pos}
		case token.PLUSPLUS, token.MINUSMINUS:
			op := p.next().Kind
			x = &ast.IncDecExpr{Op: op, X: x, P: pos}
		default:
			return x
		}
		p.ed = p.nest(p.ed)
	}
}

func (p *Parser) parsePrimary() ast.Expr {
	pos := p.cur().Pos
	p.ed = 1
	switch p.cur().Kind {
	case token.IDENT:
		name := p.next().Lit
		if p.accept(token.LPAREN) {
			call := &ast.CallExpr{Fun: name, P: pos}
			d := 0
			if !p.at(token.RPAREN) {
				for {
					call.Args = append(call.Args, p.parseExpr())
					d = max(d, p.ed)
					if !p.accept(token.COMMA) {
						break
					}
				}
			}
			p.expect(token.RPAREN)
			p.ed = p.nest(d)
			return call
		}
		return &ast.Ident{Name: name, P: pos}
	case token.INT:
		t := p.next()
		v, err := parseIntLit(t.Lit)
		if err != nil {
			p.errs = append(p.errs, fmt.Errorf("%s: bad integer literal %q", t.Pos, t.Lit))
		}
		return &ast.IntLit{Value: v, Text: t.Lit, P: pos}
	case token.KwTrue:
		p.next()
		return &ast.BoolLit{Value: true, P: pos}
	case token.KwFalse:
		p.next()
		return &ast.BoolLit{Value: false, P: pos}
	case token.KwNull:
		p.next()
		return &ast.NullLit{P: pos}
	case token.KwRandom:
		p.next()
		if p.accept(token.LPAREN) {
			p.expect(token.RPAREN)
		}
		return &ast.RandomExpr{P: pos}
	case token.LPAREN:
		p.next()
		// Cast: (type) expr — the analysis is untyped, drop the cast.
		if p.cur().Kind.IsTypeKeyword() || (p.cur().Kind == token.IDENT && castLookahead(p)) {
			if _, ok := p.parseType(); ok && p.accept(token.RPAREN) {
				return p.parseUnary()
			}
		}
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	case token.STRING:
		t := p.next()
		// String literals appear only as opaque arguments (e.g. dev_err);
		// model as a random value.
		_ = t
		return &ast.RandomExpr{P: pos}
	}
	p.errorf("expected expression, found %s", p.cur())
	p.next()
	return &ast.IntLit{Value: 0, Text: "0", P: pos}
}

// castLookahead reports whether "( IDENT ..." is a pointer cast such as
// "(PyObject *)x". Only pointer casts are recognized for typedef-style
// names; "(x)" stays an expression.
func castLookahead(p *Parser) bool {
	return p.peek().Kind == token.STAR
}

func parseIntLit(s string) (int64, error) {
	s = strings.TrimRight(s, "uUlL")
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseInt(s[2:], 16, 64)
	}
	return strconv.ParseInt(s, 10, 64)
}
