package model

import (
	"slices"
	"strings"
	"testing"
)

// example1 builds the paper's Figure 1 problem inline (the shared
// fixtures live in internal/paperex, which depends on this package).
func example1() *Problem {
	return &Problem{
		Name: "example1",
		Parties: []Party{
			{ID: "c", Role: RoleConsumer},
			{ID: "b", Role: RoleBroker},
			{ID: "p", Role: RoleProducer},
			{ID: "t1", Role: RoleTrusted},
			{ID: "t2", Role: RoleTrusted},
		},
		Exchanges: []Exchange{
			{Principal: "c", Trusted: "t1", Gives: Cash(100), Gets: Goods("d")},
			{Principal: "b", Trusted: "t1", Gives: Goods("d"), Gets: Cash(100)},
			{Principal: "b", Trusted: "t2", Gives: Cash(80), Gets: Goods("d")},
			{Principal: "p", Trusted: "t2", Gives: Goods("d"), Gets: Cash(80)},
		},
	}
}

func TestProblemValidateExample1(t *testing.T) {
	t.Parallel()
	if _, err := Compile(example1()); err != nil {
		t.Fatalf("Compile = %v", err)
	}
}

func TestProblemValidateErrors(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name   string
		mutate func(*Problem)
		want   string
	}{
		{"duplicate party", func(p *Problem) {
			p.Parties = append(p.Parties, Party{ID: "c", Role: RoleConsumer})
		}, "duplicate party"},
		{"unknown principal", func(p *Problem) {
			p.Exchanges[0].Principal = "ghost"
		}, "unknown principal"},
		{"principal not principal", func(p *Problem) {
			p.Exchanges[0].Principal = "t2"
		}, "not a principal"},
		{"unknown trusted", func(p *Problem) {
			p.Exchanges[0].Trusted = "ghost"
		}, "unknown trusted"},
		{"trusted not trusted", func(p *Problem) {
			p.Exchanges[0].Trusted = "b"
		}, "not a trusted component"},
		{"empty exchange", func(p *Problem) {
			p.Exchanges[0].Gives = Bundle{}
			p.Exchanges[0].Gets = Bundle{}
		}, "moves nothing"},
		{"negative money", func(p *Problem) {
			p.Exchanges[0].Gives = Cash(-1)
		}, "negative money"},
		{"cash conservation", func(p *Problem) {
			p.Exchanges[1].Gets = Cash(150)
		}, "receives $100 but must deliver $150"},
		{"item conservation missing input", func(p *Problem) {
			p.Exchanges[1].Gives = Goods("other")
		}, "must deliver item d"},
		{"item conservation missing output", func(p *Problem) {
			p.Exchanges[0].Gets = Goods("other")
		}, "item"},
		{"trust unknown party", func(p *Problem) {
			p.DirectTrust = append(p.DirectTrust, TrustDecl{Truster: "ghost", Trustee: "b"})
		}, "unknown party"},
		{"trust non-principal", func(p *Problem) {
			p.DirectTrust = append(p.DirectTrust, TrustDecl{Truster: "t1", Trustee: "b"})
		}, "non-principal"},
		{"self trust", func(p *Problem) {
			p.DirectTrust = append(p.DirectTrust, TrustDecl{Truster: "b", Trustee: "b"})
		}, "trust itself"},
		{"indemnity bad exchange", func(p *Problem) {
			p.Indemnities = append(p.Indemnities, IndemnityOffer{By: "b", Covers: 99, Via: "t1"})
		}, "unknown exchange"},
		{"indemnity bad holder", func(p *Problem) {
			p.Indemnities = append(p.Indemnities, IndemnityOffer{By: "b", Covers: 0, Via: "b"})
		}, "not a trusted component"},
		{"indemnity holder not shared", func(p *Problem) {
			p.Indemnities = append(p.Indemnities, IndemnityOffer{By: "b", Covers: 0, Via: "t2"})
		}, "not shared with protected principal"},
		{"indemnity offerer not adjacent", func(p *Problem) {
			p.Indemnities = append(p.Indemnities, IndemnityOffer{By: "p", Covers: 0, Via: "t1"})
		}, "does not use trusted component"},
		{"negative indemnity", func(p *Problem) {
			p.Indemnities = append(p.Indemnities, IndemnityOffer{By: "b", Covers: 0, Via: "t1", Amount: -1})
		}, "negative indemnity"},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			p := example1()
			tt.mutate(p)
			_, err := Compile(p)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("Compile = %v, want error containing %q", err, tt.want)
			}
		})
	}
}

func TestProblemLookups(t *testing.T) {
	t.Parallel()
	p := example1()
	if _, ok := MustCompile(p).Party("c"); !ok {
		t.Fatalf("Party(c) missing")
	}
	if _, ok := MustCompile(p).Party("ghost"); ok {
		t.Fatalf("Party(ghost) found")
	}
	if got := MustCompile(p).ExchangesOf("b"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ExchangesOf(b) = %v", got)
	}
	if got := MustCompile(p).ExchangesOf("t1"); len(got) != 2 {
		t.Fatalf("ExchangesOf(t1) = %v", got)
	}
	tab := MustCompile(p).ActionTable()
	k, _ := tab.PartySlot("t1")
	var at []PartyID
	for _, ei := range tab.At(k) {
		at = append(at, p.Parties[tab.Principal[ei]].ID)
	}
	if len(at) != 2 || at[0] != "c" || at[1] != "b" {
		t.Fatalf("principals at t1 = %v", at)
	}
}

func TestProblemPersonaOf(t *testing.T) {
	t.Parallel()
	p := example1()
	if _, ok := MustCompile(p).PersonaOf("t2"); ok {
		t.Fatalf("persona without trust declarations")
	}
	// p trusts b directly: b plays t2's role. A mutated problem is
	// compiled again before it is read.
	p.DirectTrust = append(p.DirectTrust, TrustDecl{Truster: "p", Trustee: "b"})
	got, ok := MustCompile(p).PersonaOf("t2")
	if !ok || got != "b" {
		t.Fatalf("PersonaOf(t2) = %v, %v; want b", got, ok)
	}
	// t1 unaffected.
	if _, ok := MustCompile(p).PersonaOf("t1"); ok {
		t.Fatalf("PersonaOf(t1) unexpectedly set")
	}
	// Asymmetry: b trusting p makes p the persona instead.
	p2 := example1()
	p2.DirectTrust = append(p2.DirectTrust, TrustDecl{Truster: "b", Trustee: "p"})
	got, ok = MustCompile(p2).PersonaOf("t2")
	if !ok || got != "p" {
		t.Fatalf("PersonaOf(t2) = %v, %v; want p", got, ok)
	}
}

// redRow returns the Red row of the compiled problem.
func redRow(p *Problem) []bool { return MustCompile(p).ActionTable().Red }

// Example 1's exchanges: 0 c via t1, 1 the broker's sale via t1, 2 the
// broker's purchase via t2, 3 p via t2.

func TestProblemRedExchangesResale(t *testing.T) {
	t.Parallel()
	red := redRow(example1())
	// The broker resells d: the sale (exchange 1, via t1) is red; the
	// purchase, the consumer's and the producer's exchanges are not.
	if want := []bool{false, true, false, false}; !slices.Equal(red, want) {
		t.Fatalf("Red = %v, want %v", red, want)
	}
}

func TestProblemRedExchangesPoorBroker(t *testing.T) {
	t.Parallel()
	p := example1()
	for i := range p.Parties {
		if p.Parties[i].ID == "b" {
			p.Parties[i].LimitedFunds = true
			p.Parties[i].Endowment = 79 // one short of the $80 purchase
		}
	}
	if red := redRow(p); !red[1] || !red[2] {
		t.Fatalf("poor broker should have two red exchanges: %v", red)
	}
	// A sufficient endowment removes the second red edge.
	for i := range p.Parties {
		if p.Parties[i].ID == "b" {
			p.Parties[i].Endowment = 80
		}
	}
	if red := redRow(p); red[2] {
		t.Fatalf("funded broker purchase red: %v", red)
	}
}

func TestProblemRedExchangesOverride(t *testing.T) {
	t.Parallel()
	p := example1()
	p.Exchanges[2].RedOverride = true
	if red := redRow(p); !red[2] {
		t.Fatalf("override ignored: %v", red)
	}
}

func TestProblemRedExchangesSingleExchangePrincipalNeverRed(t *testing.T) {
	t.Parallel()
	p := example1()
	p.Exchanges[0].RedOverride = true // consumer has only one exchange
	if red := redRow(p); red[0] {
		t.Fatalf("degree-1 principal marked red: %v", red)
	}
}

// The broker's exchanges form one all-or-nothing group, its Rest row;
// an indemnity covering one splits it out of the row (Section 6).
func TestProblemConjunctionGroups(t *testing.T) {
	t.Parallel()
	p := example1()
	rest := func(p *Problem) []int32 {
		tab := MustCompile(p).ActionTable()
		k, _ := tab.PartySlot("b")
		if own := tab.Own(k); !slices.Equal(own, []int32{1, 2}) {
			t.Fatalf("Own(b) = %v", own)
		}
		return tab.Rest(k)
	}
	if got := rest(p); !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("Rest(b) = %v", got)
	}
	p.Indemnities = append(p.Indemnities, IndemnityOffer{By: "b", Covers: 1, Via: "t1"})
	if got := rest(p); !slices.Equal(got, []int32{2}) {
		t.Fatalf("split Rest(b) = %v", got)
	}
}

func TestProblemCloneIndependence(t *testing.T) {
	t.Parallel()
	p := example1()
	c := p.Clone()
	c.Exchanges[0].Gives = Cash(999)
	c.Parties[0].Role = RoleBroker
	c.DirectTrust = append(c.DirectTrust, TrustDecl{Truster: "p", Trustee: "b"})
	if p.Exchanges[0].Gives.Amount != 100 || p.Parties[0].Role != RoleConsumer || len(p.DirectTrust) != 0 {
		t.Fatalf("Clone shares storage")
	}
}

func TestTrustsDirectional(t *testing.T) {
	t.Parallel()
	p := example1()
	p.DirectTrust = append(p.DirectTrust, TrustDecl{Truster: "p", Trustee: "b"})
	if !p.Trusts("p", "b") {
		t.Fatalf("declared trust missing")
	}
	if p.Trusts("b", "p") {
		t.Fatalf("trust symmetric")
	}
}

func TestConstraintString(t *testing.T) {
	t.Parallel()
	c := Constraint{Before: Give("p", "b", "d"), After: Give("b", "c", "d")}
	// Paper notation: later → earlier.
	want := "give_{b→c}(d) → give_{p→b}(d)"
	if got := c.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestRoleHelpers(t *testing.T) {
	t.Parallel()
	if !RoleBroker.IsPrincipal() || RoleTrusted.IsPrincipal() || RoleInvalid.IsPrincipal() {
		t.Fatalf("IsPrincipal wrong")
	}
	for _, s := range []string{"consumer", "producer", "broker", "trusted"} {
		r, err := ParseRole(s)
		if err != nil || r.String() != s {
			t.Fatalf("ParseRole(%q) = %v, %v", s, r, err)
		}
	}
	if _, err := ParseRole("nonsense"); err == nil {
		t.Fatalf("ParseRole accepted nonsense")
	}
	if got := Role(99).String(); got != "role(99)" {
		t.Fatalf("unknown role String = %q", got)
	}
}

func TestPartyValidate(t *testing.T) {
	t.Parallel()
	if err := (Party{ID: "x", Role: RoleBroker}).Validate(); err != nil {
		t.Fatalf("valid party rejected: %v", err)
	}
	if err := (Party{Role: RoleBroker}).Validate(); err == nil {
		t.Fatalf("empty ID accepted")
	}
	if err := (Party{ID: "x"}).Validate(); err == nil {
		t.Fatalf("missing role accepted")
	}
}
