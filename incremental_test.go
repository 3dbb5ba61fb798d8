package trustseq

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/sequencing"
	"trustseq/internal/service"
)

// This file is the edit-fuzzer property suite for incremental analysis
// (E-incremental): for every generator family and a menu of random
// single edits, SynthesizeIncremental from a resident base plan must be
// byte-identical to a from-scratch Synthesize of the edited problem —
// verdict, removal trace, execution steps, and rendered report alike.

// editMutation applies one random edit to p in place. It reports false
// when the edit does not apply to this problem shape (e.g. removing a
// trust declaration that does not exist); the trial is then skipped.
type editMutation struct {
	name  string
	apply func(rng *rand.Rand, p *model.Problem) bool
}

func editMutations() []editMutation {
	return []editMutation{
		{"retune", func(rng *rand.Rand, p *model.Problem) bool {
			// Bump one deposit and one delivery of the same trusted by the
			// same delta: conservation holds, the graph stays bit-identical
			// unless the new amounts trip a red rule.
			type pair struct{ in, out int }
			var pairs []pair
			for i, a := range p.Exchanges {
				if a.Gives.Amount <= 0 {
					continue
				}
				for j, b := range p.Exchanges {
					if i != j && b.Trusted == a.Trusted && b.Gets.Amount > 0 {
						pairs = append(pairs, pair{i, j})
					}
				}
			}
			if len(pairs) == 0 {
				return false
			}
			pick := pairs[rng.Intn(len(pairs))]
			delta := model.Money(1 + rng.Intn(5))
			p.Exchanges[pick.in].Gives.Amount += delta
			p.Exchanges[pick.out].Gets.Amount += delta
			return true
		}},
		{"redflip", func(rng *rand.Rand, p *model.Problem) bool {
			i := rng.Intn(len(p.Exchanges))
			p.Exchanges[i].RedOverride = !p.Exchanges[i].RedOverride
			return true
		}},
		{"funds", func(rng *rand.Rand, p *model.Problem) bool {
			var principals []int
			for i, pa := range p.Parties {
				if !pa.IsTrusted() {
					principals = append(principals, i)
				}
			}
			if len(principals) == 0 {
				return false
			}
			i := principals[rng.Intn(len(principals))]
			p.Parties[i].LimitedFunds = !p.Parties[i].LimitedFunds
			if p.Parties[i].LimitedFunds {
				p.Parties[i].Endowment = model.Money(rng.Intn(50))
			}
			return true
		}},
		{"trust-add", func(rng *rand.Rand, p *model.Problem) bool {
			var principals []model.PartyID
			for _, pa := range p.Parties {
				if !pa.IsTrusted() {
					principals = append(principals, pa.ID)
				}
			}
			if len(principals) < 2 {
				return false
			}
			a := principals[rng.Intn(len(principals))]
			b := principals[rng.Intn(len(principals))]
			if a == b {
				return false
			}
			for _, d := range p.DirectTrust {
				if d.Truster == a && d.Trustee == b {
					return false
				}
			}
			p.DirectTrust = append(p.DirectTrust, model.TrustDecl{Truster: a, Trustee: b})
			return true
		}},
		{"trust-remove", func(rng *rand.Rand, p *model.Problem) bool {
			if len(p.DirectTrust) == 0 {
				return false
			}
			i := rng.Intn(len(p.DirectTrust))
			p.DirectTrust = append(p.DirectTrust[:i], p.DirectTrust[i+1:]...)
			return true
		}},
		{"indemnify", func(rng *rand.Rand, p *model.Problem) bool {
			covers := rng.Intn(len(p.Exchanges))
			ex := p.Exchanges[covers]
			// The offerer must share the collateral holder with the
			// protected principal; a peer at the same trusted qualifies, as
			// does the protected principal itself.
			by := ex.Principal
			for _, other := range p.Exchanges {
				if other.Trusted == ex.Trusted && other.Principal != ex.Principal {
					by = other.Principal
					break
				}
			}
			p.Indemnities = append(p.Indemnities, model.IndemnityOffer{
				By: by, Covers: covers, Via: ex.Trusted, Amount: model.Money(rng.Intn(20)),
			})
			return true
		}},
		{"unindemnify", func(rng *rand.Rand, p *model.Problem) bool {
			if len(p.Indemnities) == 0 {
				return false
			}
			i := rng.Intn(len(p.Indemnities))
			p.Indemnities = append(p.Indemnities[:i], p.Indemnities[i+1:]...)
			return true
		}},
		{"rename", func(_ *rand.Rand, p *model.Problem) bool {
			p.Name += "-edited"
			return true
		}},
		{"grow", func(rng *rand.Rand, p *model.Problem) bool {
			// Structural: a new consumer–producer pair through a new trusted
			// component. The incremental path must detect this and fall back.
			price := model.Money(1 + rng.Intn(30))
			p.Parties = append(p.Parties,
				model.Party{ID: "zc", Role: model.RoleConsumer},
				model.Party{ID: "zp", Role: model.RoleProducer},
				model.Party{ID: "zt", Role: model.RoleTrusted})
			p.Exchanges = append(p.Exchanges,
				model.Exchange{Principal: "zc", Trusted: "zt", Gives: model.Cash(price), Gets: model.Goods("zd")},
				model.Exchange{Principal: "zp", Trusted: "zt", Gives: model.Goods("zd"), Gets: model.Cash(price)})
			return true
		}},
	}
}

func fuzzFamilies() map[string]func(rng *rand.Rand) *model.Problem {
	return map[string]func(rng *rand.Rand) *model.Problem{
		"pair":     func(rng *rand.Rand) *model.Problem { return gen.Pair(model.Money(2 + rng.Intn(98))) },
		"chain4":   func(rng *rand.Rand) *model.Problem { return gen.Chain(4, model.Money(20+rng.Intn(80))) },
		"chain8":   func(rng *rand.Rand) *model.Problem { return gen.Chain(8, model.Money(40+rng.Intn(80))) },
		"star":     func(*rand.Rand) *model.Problem { return gen.Star([]model.Money{10, 20, 30}) },
		"parallel": func(*rand.Rand) *model.Problem { return gen.Parallel(3, 40) },
		"example1": func(*rand.Rand) *model.Problem { return paperex.Example1() },
		"example2": func(*rand.Rand) *model.Problem { return paperex.Example2() },
		"figure7":  func(*rand.Rand) *model.Problem { return paperex.Figure7() },
		"random": func(rng *rand.Rand) *model.Problem {
			return gen.Random(rng, gen.Options{
				Consumers: 1 + rng.Intn(2), Brokers: 2, Producers: 2, DirectTrustProb: 0.3,
			})
		},
	}
}

// requirePlansIdentical compares everything a caller can observe from a
// plan, including the service's text rendering.
func requirePlansIdentical(t *testing.T, full, inc *core.Plan) {
	t.Helper()
	if full.Feasible != inc.Feasible {
		t.Fatalf("feasible: full=%v incremental=%v", full.Feasible, inc.Feasible)
	}
	if !reflect.DeepEqual(full.Reduction.Removals, inc.Reduction.Removals) {
		t.Fatalf("removal traces differ:\nfull %v\ninc  %v", full.Reduction.Removals, inc.Reduction.Removals)
	}
	if !reflect.DeepEqual(full.Reduction.RemovedSorted(), inc.Reduction.RemovedSorted()) {
		t.Fatalf("removed edge sets differ")
	}
	if got, want := inc.Reduction.String(), full.Reduction.String(); got != want {
		t.Fatalf("reduction renderings differ:\nfull %q\ninc  %q", want, got)
	}
	if !reflect.DeepEqual(full.Steps, inc.Steps) {
		t.Fatalf("execution steps differ:\nfull %v\ninc  %v", full.Steps, inc.Steps)
	}
	opts := service.AnalyzeOptions{Trace: true, Indemnify: true, Verify: true}
	fullText, err := service.RenderText(full, opts)
	if err != nil {
		t.Fatalf("RenderText(full) = %v", err)
	}
	incText, err := service.RenderText(inc, opts)
	if err != nil {
		t.Fatalf("RenderText(incremental) = %v", err)
	}
	if fullText != incText {
		t.Fatalf("rendered reports differ:\nfull:\n%s\nincremental:\n%s", fullText, incText)
	}
}

// TestIncrementalMatchesFromScratch is the property gate: random single
// edits across every family, incremental == from-scratch, both outcomes
// exercised.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(61))
	mutations := editMutations()
	seenOutcome := map[string]int{}
	trials, applied := 0, 0
	for name, make := range fuzzFamilies() {
		for trial := 0; trial < 30; trial++ {
			trials++
			baseP := make(rng)
			basePlan, err := core.Synthesize(baseP)
			if err != nil {
				t.Fatalf("%s: base Synthesize = %v", name, err)
			}
			m := mutations[rng.Intn(len(mutations))]
			edited := baseP.Clone()
			if !m.apply(rng, edited) {
				continue
			}
			if _, err := model.Compile(edited); err != nil {
				// The mutation produced an invalid problem (e.g. an
				// indemnity whose offerer lacks the required adjacency);
				// such inputs never reach the analysis pipeline.
				continue
			}
			applied++
			fullPlan, fullErr := core.Synthesize(edited.Clone())
			incPlan, info, incErr := core.SynthesizeIncremental(basePlan, model.MustCompile(edited), nil)
			if (fullErr == nil) != (incErr == nil) {
				t.Fatalf("%s/%s: error mismatch: full=%v incremental=%v", name, m.name, fullErr, incErr)
			}
			if fullErr != nil {
				continue
			}
			seenOutcome[info.Outcome.String()]++
			if m.name == "grow" && info.Outcome != core.IncrementalFull {
				t.Fatalf("%s: structural grow served as %v", name, info.Outcome)
			}
			requirePlansIdentical(t, fullPlan, incPlan)
		}
	}
	if applied < trials/2 {
		t.Fatalf("only %d/%d trials applied a mutation; fuzzer coverage collapsed", applied, trials)
	}
	for _, want := range []string{"reused", "full"} {
		if seenOutcome[want] == 0 {
			t.Errorf("outcome %q never observed (distribution %v)", want, seenOutcome)
		}
	}
	t.Logf("trials=%d applied=%d outcomes=%v", trials, applied, seenOutcome)
}

// TestIncrementalChain drives a base plan through a sequence of edits,
// rebasing on each incremental result — the service's steady-state use,
// where each response becomes the next request's base.
func TestIncrementalChain(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	mutations := editMutations()
	base := paperex.Figure7()
	basePlan, err := core.Synthesize(base)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		m := mutations[rng.Intn(len(mutations))]
		edited := basePlan.Problem.Clone()
		if !m.apply(rng, edited) {
			continue
		}
		if _, err := model.Compile(edited); err != nil {
			continue
		}
		fullPlan, fullErr := core.Synthesize(edited.Clone())
		incPlan, _, incErr := core.SynthesizeIncremental(basePlan, model.MustCompile(edited), nil)
		if (fullErr == nil) != (incErr == nil) {
			t.Fatalf("step %d (%s): error mismatch: full=%v incremental=%v", step, m.name, fullErr, incErr)
		}
		if fullErr != nil {
			continue
		}
		requirePlansIdentical(t, fullPlan, incPlan)
		basePlan = incPlan
	}
}

// renameParty renames the principal of the problem's first exchange
// everywhere it appears: a change to a row the sequencing graph reads.
func renameParty(_ *rand.Rand, p *model.Problem) bool {
	from := p.Exchanges[0].Principal
	to := from + "-renamed"
	rename := func(id *model.PartyID) {
		if *id == from {
			*id = to
		}
	}
	for i := range p.Parties {
		rename(&p.Parties[i].ID)
	}
	for i := range p.Exchanges {
		rename(&p.Exchanges[i].Principal)
	}
	for i := range p.DirectTrust {
		rename(&p.DirectTrust[i].Truster)
		rename(&p.DirectTrust[i].Trustee)
	}
	for i := range p.Indemnities {
		rename(&p.Indemnities[i].By)
	}
	for i := range p.Constraints {
		for _, a := range []*model.Action{&p.Constraints[i].Before, &p.Constraints[i].After} {
			rename(&a.From)
			rename(&a.To)
		}
	}
	return true
}

// sameGraphFields reports whether two graphs are equal field for field,
// unexported fields included, but for the problem they are bound to.
func sameGraphFields(a, b *sequencing.Graph) bool {
	ac, bc := *a, *b
	ac.Problem, bc.Problem = nil, nil
	return reflect.DeepEqual(ac, bc)
}

// TestReuseCheckMatchesBuild runs every generator family through every
// edit of the menu, an unchanged clone and a party rename. On each edit
// the reuse check (sequencing.SameGraph) holds exactly when Build of the
// edited problem equals the base graph field for field; the base graph
// and reduction are never mutated; and the incremental plan equals the
// full plan.
func TestReuseCheckMatchesBuild(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(33))
	edits := append(editMutations(),
		editMutation{"clone", func(*rand.Rand, *model.Problem) bool { return true }},
		editMutation{"party-rename", renameParty})
	families := fuzzFamilies()
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	slices.Sort(names)
	reused, full := 0, 0
	for _, name := range names {
		for _, m := range edits {
			for trial := 0; trial < 3; trial++ {
				baseP := families[name](rng)
				basePlan, err := core.Synthesize(baseP)
				if err != nil {
					t.Fatalf("%s: base Synthesize = %v", name, err)
				}
				edited := baseP.Clone()
				if !m.apply(rng, edited) {
					continue
				}
				c, err := model.Compile(edited)
				if err != nil {
					continue
				}
				same := sequencing.SameGraph(basePlan.Problem, c)
				if built := sameGraphFields(basePlan.Sequencing, sequencing.Build(c)); same != built {
					t.Fatalf("%s/%s: SameGraph = %v, but Build equals the base graph: %v", name, m.name, same, built)
				}
				wantGraph := sequencing.Build(basePlan.Problem)
				wantRed := sequencing.Reduce(wantGraph, nil)
				incPlan, info, incErr := core.SynthesizeIncremental(basePlan, c, nil)
				fullPlan, fullErr := core.SynthesizeObs(c, nil)
				if (fullErr == nil) != (incErr == nil) {
					t.Fatalf("%s/%s: error mismatch: full=%v incremental=%v", name, m.name, fullErr, incErr)
				}
				if !reflect.DeepEqual(basePlan.Sequencing, wantGraph) || !reflect.DeepEqual(basePlan.Reduction, wantRed) {
					t.Fatalf("%s/%s: the incremental run mutated the base graph or reduction", name, m.name)
				}
				if info.Patched() != same {
					t.Fatalf("%s/%s: served as %v, SameGraph = %v", name, m.name, info.Outcome, same)
				}
				if fullErr != nil {
					continue
				}
				requirePlansIdentical(t, fullPlan, incPlan)
				if same {
					reused++
				} else {
					full++
				}
			}
		}
	}
	if reused == 0 || full == 0 {
		t.Fatalf("corpus exercised only one outcome: %d reused, %d full", reused, full)
	}
	t.Logf("reused=%d full=%d", reused, full)
}
