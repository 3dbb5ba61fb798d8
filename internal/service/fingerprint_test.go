package service

import (
	"testing"

	"trustseq/internal/model"
)

// digestBase is a problem with every verdict-relevant field set, so
// each mutation below moves exactly one field off its base value.
func digestBase() *model.Problem {
	act := func(from model.PartyID) model.Action {
		return model.Action{Kind: model.ActionGive, From: from, To: "t", Item: "x", Amount: 3}
	}
	return &model.Problem{
		Name: "base",
		Parties: []model.Party{
			{ID: "c", Role: model.RoleConsumer, LimitedFunds: true, Endowment: 50},
			{ID: "b", Role: model.RoleBroker},
			{ID: "t", Role: model.RoleTrusted},
		},
		Exchanges: []model.Exchange{{
			Principal: "c",
			Trusted:   "t",
			Gives:     model.Bundle{Amount: 10, Items: []model.ItemID{"x"}},
			Gets:      model.Bundle{Amount: 1, Items: []model.ItemID{"d"}},
		}},
		DirectTrust: []model.TrustDecl{{Truster: "c", Trustee: "b"}},
		Indemnities: []model.IndemnityOffer{{By: "b", Covers: 0, Via: "t", Amount: 5}},
		Constraints: []model.Constraint{{Before: act("c"), After: act("b")}},
	}
}

// TestProblemDigestFieldSensitivity: every field that can change a
// verdict changes the problem digest, fields are length-prefixed, and
// every option changes the request key.
func TestProblemDigestFieldSensitivity(t *testing.T) {
	base := ProblemDigest(digestBase())
	if again := ProblemDigest(digestBase()); again != base {
		t.Fatalf("digest is not deterministic: %x then %x", base, again)
	}
	mutations := map[string]func(*model.Problem){
		"name":                  func(p *model.Problem) { p.Name = "other" },
		"party ID":              func(p *model.Problem) { p.Parties[1].ID = "b2" },
		"party role":            func(p *model.Problem) { p.Parties[1].Role = model.RoleProducer },
		"party limited funds":   func(p *model.Problem) { p.Parties[0].LimitedFunds = false },
		"party endowment":       func(p *model.Problem) { p.Parties[0].Endowment = 51 },
		"exchange principal":    func(p *model.Problem) { p.Exchanges[0].Principal = "b" },
		"exchange trusted":      func(p *model.Problem) { p.Exchanges[0].Trusted = "t2" },
		"exchange gives amount": func(p *model.Problem) { p.Exchanges[0].Gives.Amount = 11 },
		"exchange gives items":  func(p *model.Problem) { p.Exchanges[0].Gives.Items = []model.ItemID{"y"} },
		"exchange gets amount":  func(p *model.Problem) { p.Exchanges[0].Gets.Amount = 2 },
		"exchange gets items":   func(p *model.Problem) { p.Exchanges[0].Gets.Items = nil },
		"exchange red override": func(p *model.Problem) { p.Exchanges[0].RedOverride = true },
		"direct-trust truster":  func(p *model.Problem) { p.DirectTrust[0].Truster = "t" },
		"direct-trust trustee":  func(p *model.Problem) { p.DirectTrust[0].Trustee = "t" },
		"indemnity by":          func(p *model.Problem) { p.Indemnities[0].By = "c" },
		"indemnity covers":      func(p *model.Problem) { p.Indemnities[0].Covers = 1 },
		"indemnity via":         func(p *model.Problem) { p.Indemnities[0].Via = "t2" },
		"indemnity amount":      func(p *model.Problem) { p.Indemnities[0].Amount = 6 },
	}
	for _, side := range []string{"before", "after"} {
		action := func(p *model.Problem) *model.Action {
			if side == "before" {
				return &p.Constraints[0].Before
			}
			return &p.Constraints[0].After
		}
		for field, mutate := range map[string]func(*model.Action){
			"kind":    func(a *model.Action) { a.Kind = model.ActionPay },
			"from":    func(a *model.Action) { a.From = "t" },
			"to":      func(a *model.Action) { a.To = "c" },
			"item":    func(a *model.Action) { a.Item = "y" },
			"amount":  func(a *model.Action) { a.Amount = 4 },
			"inverse": func(a *model.Action) { a.Inverse = true },
		} {
			mutations["constraint "+side+" "+field] = func(p *model.Problem) { mutate(action(p)) }
		}
	}
	for name, mutate := range mutations {
		p := digestBase()
		mutate(p)
		if ProblemDigest(p) == base {
			t.Errorf("changing the %s leaves the digest unchanged", name)
		}
	}

	// Field boundaries are explicit: moving a byte across the boundary
	// of two adjacent strings changes the digest.
	a, b := digestBase(), digestBase()
	a.DirectTrust[0] = model.TrustDecl{Truster: "ab", Trustee: "c"}
	b.DirectTrust[0] = model.TrustDecl{Truster: "a", Trustee: "bc"}
	if ProblemDigest(a) == ProblemDigest(b) {
		t.Error(`trust pairs "ab","c" and "a","bc" share a digest`)
	}

	seen := map[[2]uint64]string{requestKey(base, AnalyzeOptions{}): "no options"}
	for name, opts := range map[string]AnalyzeOptions{
		"trace":      {Trace: true},
		"indemnify":  {Indemnify: true},
		"verify":     {Verify: true},
		"crosscheck": {CrossCheck: true},
		"simulate":   {Simulate: true},
		"seed":       {SimSeed: 1},
		"deadline":   {SimDeadline: 99},
	} {
		key := requestKey(base, opts)
		if prev, dup := seen[key]; dup {
			t.Errorf("option %s gives the request key of %s", name, prev)
		}
		seen[key] = name
	}
}
