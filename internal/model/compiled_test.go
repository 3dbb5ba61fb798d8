package model_test

import (
	"reflect"
	"slices"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// A compiled problem is a value: no edit of the builder it was compiled
// from, in place or by append, reaches its digest, its table or the plan
// synthesized from it. Compiling the edited builder again sees the edit,
// and an invalid edit fails there with Compile's error.
func TestCompiledIgnoresBuilderEdits(t *testing.T) {
	t.Parallel()
	fixture := paperex.Example2Indemnified
	wantDigest := model.Digest(fixture())
	wantTable := model.MustCompile(fixture()).ActionTable()
	steps := func(c *model.Compiled) []core.Step {
		plan, err := core.SynthesizeObs(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Steps
	}
	wantSteps := steps(model.MustCompile(fixture()))
	if len(wantSteps) == 0 {
		t.Fatal("the fixture has no plan")
	}

	type edit struct {
		name string
		edit func(p *model.Problem)
		// sees checks the edit on the recompiled problem; err is the
		// error Compile returns instead, for an invalid edit.
		sees func(c *model.Compiled) bool
		err  string
	}
	const c1, b1Sale, s1Provide, c2 = paperex.Example2ConsumerDoc1, paperex.Example2B1Sale, paperex.Example2S1Provide, paperex.Example2ConsumerDoc2
	edits := []edit{
		{name: "price", edit: func(p *model.Problem) {
			p.Exchanges[c1].Gives.Amount, p.Exchanges[b1Sale].Gets.Amount = 90, 90
		}, sees: func(c *model.Compiled) bool { return c.ActionTable().Cash[c.ActionTable().Deposits(c1)[0]] == 90 }},
		{name: "unbalanced price", edit: func(p *model.Problem) { p.Exchanges[c1].Gives.Amount = 107 },
			err: "model: trusted t1 receives $107 but must deliver $100"},
		{name: "party rename", edit: func(p *model.Problem) { p.Parties[4].ID = "s9" },
			err: "model: exchange 7 references unknown principal s2"},
		{name: "bundle item", edit: func(p *model.Problem) { p.Exchanges[s1Provide].Gives.Items[0] = "d9" },
			err: "model: trusted t2 must deliver item d1 ×1 but receives ×0"},
		{name: "red override", edit: func(p *model.Problem) { p.Exchanges[c2].RedOverride = true },
			sees: func(c *model.Compiled) bool { return c.ActionTable().Red[c2] }},
		{name: "offer amount", edit: func(p *model.Problem) { p.Indemnities[0].Amount = 55 },
			sees: func(c *model.Compiled) bool { return c.ActionTable().Collateral(0) == 55 }},
		{name: "append party", edit: func(p *model.Problem) {
			p.Parties = append(p.Parties, model.Party{ID: "s3", Role: model.RoleProducer})
		}, sees: func(c *model.Compiled) bool { _, ok := c.Party("s3"); return ok }},
		{name: "append exchange", edit: func(p *model.Problem) {
			p.Exchanges = append(p.Exchanges, model.Exchange{Principal: paperex.Source1, Trusted: paperex.Trusted1, Gives: model.Goods("x")})
		}, err: "model: trusted t1 receives item x ×1 but only delivers ×0"},
		{name: "append trust", edit: func(p *model.Problem) {
			p.DirectTrust = append(p.DirectTrust, model.TrustDecl{Truster: paperex.Source1, Trustee: paperex.Broker1})
		}, sees: func(c *model.Compiled) bool {
			q, ok := c.PersonaOf(paperex.Trusted2)
			return ok && q == paperex.Broker1
		}},
		{name: "append indemnity", edit: func(p *model.Problem) {
			p.Indemnities = append(p.Indemnities, model.IndemnityOffer{By: paperex.Broker2, Covers: c2, Via: paperex.Trusted3})
		}, sees: func(c *model.Compiled) bool { return len(c.ActionTable().Post) == 2 }},
		{name: "append constraint", edit: func(p *model.Problem) {
			p.Constraints = append(p.Constraints, model.Constraint{
				Before: model.Pay(paperex.Consumer, paperex.Trusted1, 100),
				After:  model.Pay(paperex.Consumer, paperex.Trusted3, 100),
			})
		}, sees: func(c *model.Compiled) bool { return len(c.Constraints) == 1 }},
	}
	for _, e := range edits {
		p := fixture()
		c, err := model.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		tab := c.ActionTable()
		e.edit(p)
		if c.Digest() != wantDigest {
			t.Errorf("%s: the builder edit reached the compiled digest", e.name)
		}
		if c.ActionTable() != tab || !reflect.DeepEqual(tab, wantTable) {
			t.Errorf("%s: the builder edit reached the compiled table", e.name)
		}
		if got := steps(c); !slices.EqualFunc(got, wantSteps, func(a, b core.Step) bool { return reflect.DeepEqual(a, b) }) {
			t.Errorf("%s: the builder edit changed the plan", e.name)
		}

		again, err := model.Compile(p)
		switch {
		case e.err != "":
			if err == nil || err.Error() != e.err {
				t.Errorf("%s: recompiling = %v, want %q", e.name, err, e.err)
			}
		case err != nil:
			t.Errorf("%s: recompiling: %v", e.name, err)
		case again.Digest() == wantDigest || again.Digest() != model.Digest(p) || !e.sees(again):
			t.Errorf("%s: the recompiled problem does not see the edit", e.name)
		}
	}
}
