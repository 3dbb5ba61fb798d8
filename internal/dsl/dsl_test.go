package dsl

import (
	"strings"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

const example1Src = `
// Figure 1: consumer buys a document from a producer through a broker.
problem example1 {
    consumer c
    broker   b
    producer p
    trusted  t1
    trusted  t2

    exchange c with b via t1 { c gives $100; b gives doc "d" }
    exchange b with p via t2 { b gives $80;  p gives doc "d" }
}
`

func TestLexBasics(t *testing.T) {
	t.Parallel()
	toks, err := Lex(`problem x { $10 + doc "a b" ; -> } // tail`)
	if err != nil {
		t.Fatalf("Lex = %v", err)
	}
	kinds := make([]Kind, 0, len(toks))
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []Kind{TokIdent, TokIdent, TokLBrace, TokMoney, TokPlus, TokIdent, TokString, TokSemi, TokArrow, TokRBrace, TokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[3].Text != "10" {
		t.Errorf("money text = %q", toks[3].Text)
	}
	if toks[6].Text != "a b" {
		t.Errorf("string text = %q", toks[6].Text)
	}
}

func TestLexComments(t *testing.T) {
	t.Parallel()
	toks, err := Lex("a /* block\ncomment */ b // line\nc")
	if err != nil {
		t.Fatalf("Lex = %v", err)
	}
	if len(toks) != 4 { // a b c EOF
		t.Fatalf("tokens = %v", toks)
	}
	if toks[2].Pos.Line != 3 {
		t.Errorf("c at line %d, want 3", toks[2].Pos.Line)
	}
}

func TestLexStringEscapes(t *testing.T) {
	t.Parallel()
	toks, err := Lex(`"a\"b\\c\nd\te"`)
	if err != nil {
		t.Fatalf("Lex = %v", err)
	}
	if got := toks[0].Text; got != "a\"b\\c\nd\te" {
		t.Fatalf("string = %q", got)
	}
}

func TestLexErrors(t *testing.T) {
	t.Parallel()
	tests := []struct {
		src  string
		want string
	}{
		{`$`, "'$' must be followed by digits"},
		{`"abc`, "unterminated string"},
		{`"a` + "\n" + `"`, "unterminated string"},
		{`/* open`, "unterminated block comment"},
		{`a - b`, "did you mean '->'"},
		{`"\q"`, "unknown escape"},
		{`#`, "unexpected character"},
	}
	for _, tt := range tests {
		_, err := Lex(tt.src)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("Lex(%q) = %v, want %q", tt.src, err, tt.want)
		}
	}
}

func TestParseAndCompileExample1(t *testing.T) {
	t.Parallel()
	p, err := Load(example1Src)
	if err != nil {
		t.Fatalf("Load = %v", err)
	}
	if p.Name != "example1" {
		t.Errorf("name = %q", p.Name)
	}
	if len(p.Parties) != 5 || len(p.Exchanges) != 4 {
		t.Fatalf("parties=%d exchanges=%d", len(p.Parties), len(p.Exchanges))
	}
	// The compiled problem must be semantically identical to the fixture:
	// same graph verdict and same 10-step execution shape.
	plan, err := core.Synthesize(p)
	if err != nil {
		t.Fatalf("Synthesize = %v", err)
	}
	if !plan.Feasible {
		t.Fatalf("compiled example1 infeasible")
	}
	if got := len(plan.ActionSteps()); got != 10 {
		t.Errorf("steps = %d, want 10", got)
	}
	if err := plan.Verify(); err != nil {
		t.Errorf("Verify = %v", err)
	}
}

func TestCompileEndowmentTrustRedIndemnify(t *testing.T) {
	t.Parallel()
	src := `
problem full {
    consumer c
    broker b
    producer p
    trusted t1
    trusted t2
    exchange c with b via t1 { c gives $100; b gives doc "d" }
    exchange b with p via t2 { b gives $80; p gives doc "d" }
    endowment b $80
    trust p -> b
    red b via t2
    indemnify b covers c via t1 amount $40
}
`
	p, err := Load(src)
	if err != nil {
		t.Fatalf("Load = %v", err)
	}
	pa, _ := model.MustCompile(p).Party("b")
	if !pa.LimitedFunds || pa.Endowment != 80 {
		t.Errorf("endowment not applied: %+v", pa)
	}
	if !p.Trusts("p", "b") {
		t.Errorf("trust not applied")
	}
	redIdx := -1
	for i, e := range p.Exchanges {
		if e.RedOverride {
			redIdx = i
		}
	}
	if redIdx < 0 || p.Exchanges[redIdx].Principal != "b" || p.Exchanges[redIdx].Trusted != "t2" {
		t.Errorf("red override wrong: %d", redIdx)
	}
	if len(p.Indemnities) != 1 || p.Indemnities[0].Amount != 40 || p.Exchanges[p.Indemnities[0].Covers].Principal != "c" {
		t.Errorf("indemnity wrong: %+v", p.Indemnities)
	}
}

func TestCompileErrors(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name, src, want string
	}{
		{"missing problem", `x`, `expected "problem"`},
		{"missing brace", `problem x`, "expected '{'"},
		{"unterminated block", `problem x {`, "missing '}'"},
		{"unknown stmt", `problem x { widget y }`, "unknown statement"},
		{"dup party", `problem x { consumer c consumer c }`, "already declared"},
		{"undeclared in exchange", `problem x { consumer c trusted t exchange c with b via t { c gives $1 } }`, "undeclared party"},
		{"trusted as principal", `problem x { consumer c trusted t trusted u exchange c with t via u { c gives $1 } }`, "expected a principal"},
		{"principal as via", `problem x { consumer c producer p broker b exchange c with p via b { c gives $1 } }`, "expected a trusted component"},
		{"self exchange", `problem x { consumer c trusted t exchange c with c via t { c gives $1 } }`, "itself"},
		{"foreign clause", `problem x { consumer c producer p broker b trusted t exchange c with p via t { b gives $1 } }`, "not a party of this exchange"},
		{"dup clause", `problem x { consumer c producer p trusted t exchange c with p via t { c gives $1; c gives $2 } }`, "duplicate 'gives'"},
		{"too many clauses", `problem x { consumer c producer p trusted t exchange c with p via t { c gives $1; p gives doc "d"; c gives $2 } }`, "1 or 2 'gives'"},
		{"reused via", `problem x { consumer c producer p trusted t exchange c with p via t { c gives $1; p gives doc "d" } exchange c with p via t { c gives $1; p gives doc "e" } }`, "already has an exchange via"},
		{"endowment unknown", `problem x { endowment z $5 }`, "undeclared party"},
		{"dup endowment", `problem x { consumer c producer p trusted t exchange c with p via t { c gives $1; p gives doc "d" } endowment c $5 endowment c $6 }`, "duplicate endowment"},
		{"self trust", `problem x { consumer c producer p trusted t exchange c with p via t { c gives $1; p gives doc "d" } trust c -> c }`, "cannot trust itself"},
		{"red without exchange", `problem x { consumer c producer p trusted t exchange c with p via t { c gives $1; p gives doc "d" } trusted u red c via u }`, "no exchange of"},
		{"indemnify without exchange", `problem x { consumer c producer p broker b trusted t exchange c with p via t { c gives $1; p gives doc "d" } indemnify b covers b via t }`, "no exchange of"},
		{"bad asset", `problem x { consumer c producer p trusted t exchange c with p via t { c gives wampum } }`, "expected an asset"},
		{"empty exchange compiles to model error", `problem x { consumer c producer p trusted t exchange c with p via t { c gives nothing } }`, "moves nothing"},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			p, err := Load(tt.src)
			if err == nil {
				_, err = model.Compile(p)
			}
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("Load and Compile = %v, want error containing %q", err, tt.want)
			}
		})
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	t.Parallel()
	_, err := Load("problem x {\n  widget y\n}")
	if err == nil {
		t.Fatalf("no error")
	}
	var derr *Error
	if !strings.Contains(err.Error(), "2:3") {
		t.Errorf("error %q missing position 2:3", err.Error())
	}
	_ = derr
}

// Round trip: fixture problems print to DSL and load back to equivalent
// problems (same verdicts, same structure).
func TestPrintRoundTrip(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"example1", "example2", "example2-variant1", "example1-poor-broker", "figure7", "example2-indemnified"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			orig := paperex.All()[name]
			src, err := Print(orig)
			if err != nil {
				t.Fatalf("Print = %v", err)
			}
			back, err := Load(src)
			if err != nil {
				t.Fatalf("Load(Print) = %v\n%s", err, src)
			}
			if len(back.Parties) != len(orig.Parties) || len(back.Exchanges) != len(orig.Exchanges) {
				t.Fatalf("shape changed: %d/%d parties, %d/%d exchanges",
					len(back.Parties), len(orig.Parties), len(back.Exchanges), len(orig.Exchanges))
			}
			p1, err := core.Synthesize(orig)
			if err != nil {
				t.Fatalf("Synthesize(orig) = %v", err)
			}
			p2, err := core.Synthesize(back)
			if err != nil {
				t.Fatalf("Synthesize(back) = %v", err)
			}
			if p1.Feasible != p2.Feasible {
				t.Errorf("feasibility changed through round trip: %v vs %v", p1.Feasible, p2.Feasible)
			}
			if p1.Feasible && len(p1.ActionSteps()) != len(p2.ActionSteps()) {
				t.Errorf("step count changed: %d vs %d", len(p1.ActionSteps()), len(p2.ActionSteps()))
			}
		})
	}
}

// The universal-intermediary construction is not expressible; Print must
// say so rather than emit garbage.
func TestPrintRejectsUniversalTI(t *testing.T) {
	t.Parallel()
	p := paperex.UniversalTrust(paperex.Example2())
	if _, err := Print(p); err == nil {
		t.Fatalf("Print accepted a universal-TI problem")
	}
}

func TestBundleExprConversion(t *testing.T) {
	t.Parallel()
	be := BundleExpr{Amount: 5, Items: []string{"b", "a"}}
	b := be.Bundle()
	if !b.Equal(model.Cash(5).With("a", "b")) {
		t.Fatalf("Bundle = %v", b)
	}
}

func TestMixedBundleExchange(t *testing.T) {
	t.Parallel()
	src := `
problem mixed {
    consumer c
    producer p
    trusted t
    exchange c with p via t { c gives $10 + doc "trade-in"; p gives doc "new" + doc "manual" }
}
`
	p, err := Load(src)
	if err != nil {
		t.Fatalf("Load = %v", err)
	}
	e := p.Exchanges[0]
	if !e.Gives.Equal(model.Cash(10).With("trade-in")) {
		t.Errorf("gives = %v", e.Gives)
	}
	if !e.Gets.Equal(model.Goods("new", "manual")) {
		t.Errorf("gets = %v", e.Gets)
	}
}

func TestTokenAndKindStrings(t *testing.T) {
	t.Parallel()
	if (Token{Kind: TokMoney, Text: "5"}).String() != "$5" {
		t.Errorf("money token string")
	}
	if (Token{Kind: TokIdent, Text: "x"}).String() != `"x"` {
		t.Errorf("ident token string")
	}
	if TokArrow.String() != "'->'" || TokEOF.String() != "end of input" {
		t.Errorf("kind strings")
	}
}
