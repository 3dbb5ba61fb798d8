package model_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/indemnity"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// The oracles below are the linear scans the party accessors and the
// graph inputs used before they read the action table's rows. They
// derive each answer straight from the specification fields.

func oracleExchangesOf(p *model.Problem, id model.PartyID) []int {
	var out []int
	for i, e := range p.Exchanges {
		if e.Principal == id || e.Trusted == id {
			out = append(out, i)
		}
	}
	return out
}

func oraclePrincipalsAt(p *model.Problem, trusted model.PartyID) []model.PartyID {
	seen := make(map[model.PartyID]struct{})
	var out []model.PartyID
	for _, e := range p.Exchanges {
		if e.Trusted != trusted {
			continue
		}
		if _, ok := seen[e.Principal]; !ok {
			seen[e.Principal] = struct{}{}
			out = append(out, e.Principal)
		}
	}
	return out
}

// oraclePersonaOf applies the persona rule (Section 4.2.3) to the
// scanned principals: the one every other adjacent principal directly
// trusts plays the trusted component.
func oraclePersonaOf(p *model.Problem, t model.PartyID) (model.PartyID, bool) {
	principals := oraclePrincipalsAt(p, t)
	for _, q := range principals {
		all := true
		for _, other := range principals {
			if other == q {
				continue
			}
			if !p.Trusts(other, q) {
				all = false
				break
			}
		}
		if all && len(principals) > 1 {
			return q, true
		}
	}
	return "", false
}

// oracleSplit returns the principal's own exchanges in ascending order
// and the set of them an indemnity offer splits out.
func oracleSplit(p *model.Problem, principal model.PartyID) (mine []int, split map[int]bool) {
	for i, e := range p.Exchanges {
		if e.Principal == principal {
			mine = append(mine, i)
		}
	}
	split = make(map[int]bool)
	for _, off := range p.Indemnities {
		if off.Covers >= 0 && off.Covers < len(p.Exchanges) &&
			p.Exchanges[off.Covers].Principal == principal {
			split[off.Covers] = true
		}
	}
	return mine, split
}

func oracleConjunctionGroups(p *model.Problem, principal model.PartyID) [][]int {
	mine, split := oracleSplit(p, principal)
	var rest []int
	var groups [][]int
	for _, i := range mine {
		if split[i] {
			groups = append(groups, []int{i})
		} else {
			rest = append(rest, i)
		}
	}
	if len(rest) > 0 {
		groups = append(groups, rest)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return groups
}

// oracleRedExchangesOf applies the three red rules of Section 4.1 to the
// principal's scanned exchanges.
func oracleRedExchangesOf(p *model.Problem, principal model.PartyID) map[int]bool {
	if len(oracleExchangesOf(p, principal)) < 2 {
		return nil
	}
	var idxs []int
	for i, e := range p.Exchanges {
		if e.Principal == principal {
			idxs = append(idxs, i)
		}
	}
	var out map[int]bool
	mark := func(idx int) {
		if out == nil {
			out = make(map[int]bool)
		}
		out[idx] = true
	}
	for _, i := range idxs {
		if p.Exchanges[i].RedOverride {
			mark(i)
		}
	}
	acquired := make(map[model.ItemID]bool)
	for _, i := range idxs {
		for _, it := range p.Exchanges[i].Gets.Items {
			acquired[it] = true
		}
	}
	for _, i := range idxs {
		for _, it := range p.Exchanges[i].Gives.Items {
			if acquired[it] {
				mark(i)
			}
		}
	}
	k := slices.IndexFunc(p.Parties, func(pa model.Party) bool { return pa.ID == principal })
	if k < 0 || !p.Parties[k].LimitedFunds {
		return out
	}
	pa := p.Parties[k]
	var outgoing model.Money
	for _, i := range idxs {
		outgoing += p.Exchanges[i].Gives.Amount
	}
	if pa.Endowment < outgoing {
		for _, i := range idxs {
			if p.Exchanges[i].Gives.Amount > 0 {
				mark(i)
			}
		}
	}
	return out
}

// rowGroups partitions the party's Own row into conjunction groups,
// ordered by first member: its Rest row, and each exchange outside it
// alone.
func rowGroups(tab *model.ActionTable, k int) [][]int {
	var groups [][]int
	var rest []int
	for _, ei := range tab.Own(k) {
		if slices.Contains(tab.Rest(k), ei) {
			rest = append(rest, int(ei))
		} else {
			groups = append(groups, []int{int(ei)})
		}
	}
	if len(rest) > 0 {
		groups = append(groups, rest)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return groups
}

// accessorCorpus is every paper fixture and the cross-check pin corpus
// (the fixtures, a problem whose post and payout coincide with a deposit
// and a receipt, and samples of every generator family), plus larger
// producer populations, direct-trust markets with and without poor
// brokers, and the indemnified variant indemnity.Greedy finds for each
// problem it can make feasible.
func accessorCorpus(t *testing.T) map[string]*model.Problem {
	t.Helper()
	out := paperex.All()
	coinciding := paperex.Example2()
	coinciding.Indemnities = []model.IndemnityOffer{{
		By: paperex.Broker1, Covers: paperex.Example2S1Provide, Via: paperex.Trusted2, Amount: 80,
	}}
	out["example2-coinciding"] = coinciding
	out["gen-pair"] = gen.Pair(10)
	for k := 1; k <= 3; k++ {
		out[fmt.Sprintf("gen-chain-%d", k)] = gen.Chain(k, 30)
	}
	out["gen-star-2"] = gen.Star([]model.Money{20, 30})
	out["gen-star-3"] = gen.Star([]model.Money{20, 30, 20})
	out["gen-parallel-2"] = gen.Parallel(2, 10)
	out["gen-population-2"] = gen.Population(2, 1, 10)
	out["gen-population-12-3"] = gen.Population(12, 3, 10)
	out["gen-population-9-default"] = gen.Population(9, 0, 10)
	// Offers whose amount the table resolves: each consumer insures its
	// own purchase, each broker its consumer's (self-insured: it gives
	// the document at that holder) and its own wholesale buy (not: it
	// gives the document only at the retail holder).
	offered := gen.Population(6, 0, 10)
	for ei := 0; ei < len(offered.Exchanges); ei += 4 {
		retail, wholesale := offered.Exchanges[ei], offered.Exchanges[ei+2]
		offered.Indemnities = append(offered.Indemnities,
			model.IndemnityOffer{By: retail.Principal, Covers: ei, Via: retail.Trusted},
			model.IndemnityOffer{By: wholesale.Principal, Covers: ei, Via: retail.Trusted},
			model.IndemnityOffer{By: wholesale.Principal, Covers: ei + 2, Via: wholesale.Trusted})
	}
	out["gen-population-6-offered"] = offered
	for seed := int64(0); seed < 6; seed++ {
		out[fmt.Sprintf("gen-random-%d", seed)] = gen.Random(rand.New(rand.NewSource(seed)), gen.Options{
			Consumers: 1, Brokers: 2, Producers: 2, MaxPrice: 30, DirectTrustProb: 0.25,
		})
		for _, poor := range []bool{false, true} {
			out[fmt.Sprintf("gen-trust-market-%d-poor=%v", seed, poor)] = gen.Random(rand.New(rand.NewSource(seed)), gen.Options{
				Consumers: 3, Brokers: 2, Producers: 3, MaxPrice: 40, DirectTrustProb: 0.75, PoorBroker: poor,
			})
		}
	}
	for name, p := range maps.Clone(out) {
		res, err := indemnity.Greedy(model.MustCompile(p))
		if err != nil {
			t.Fatalf("%s: Greedy: %v", name, err)
		}
		if len(res.Splits) == 0 {
			continue
		}
		v := p.Clone()
		for _, sp := range res.Splits {
			v.Indemnities = append(v.Indemnities, sp.Offer)
		}
		out[name+"+greedy"] = v
	}
	return out
}

// The table-backed party accessors and the rows the sequencing graph
// reads answer exactly what the scans over the specification fields
// answer, for every party (and an unknown one) of every corpus problem.
func TestAccessorsMatchScanOracles(t *testing.T) {
	t.Parallel()
	corpus := accessorCorpus(t)
	if len(corpus) < 40 {
		t.Fatalf("corpus has only %d problems", len(corpus))
	}
	indemnified, personas, red := 0, 0, 0
	for name, p := range corpus {
		if len(p.Indemnities) > 0 {
			indemnified++
		}
		for _, pa := range p.Parties {
			if _, ok := oraclePersonaOf(p, pa.ID); ok {
				personas++
			}
			if len(oracleRedExchangesOf(p, pa.ID)) > 0 {
				red++
			}
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			q, err := model.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			tab := q.ActionTable()
			ids := []model.PartyID{"ghost"}
			for _, pa := range p.Parties {
				ids = append(ids, pa.ID)
			}
			for _, id := range ids {
				if got, want := q.ExchangesOf(id), oracleExchangesOf(p, id); !slices.Equal(got, want) {
					t.Errorf("ExchangesOf(%s) = %v, oracle %v", id, got, want)
				}
				gq, gok := q.PersonaOf(id)
				wq, wok := oraclePersonaOf(p, id)
				if gq != wq || gok != wok {
					t.Errorf("PersonaOf(%s) = %s, %v; oracle %s, %v", id, gq, gok, wq, wok)
				}
				// The rows the sequencing graph reads, by party slot: the
				// At row and its principals, the degree, the conjunction
				// groups of the Own and Rest rows, and the Red entries of
				// the party's own exchanges.
				var principals []model.PartyID
				var groups [][]int
				var red map[int]bool
				degree := 0
				if k, ok := tab.PartySlot(id); ok {
					for _, ei := range tab.At(k) {
						if pr := p.Parties[tab.Principal[ei]].ID; !slices.Contains(principals, pr) {
							principals = append(principals, pr)
						}
					}
					degree = tab.Degree(k)
					groups = rowGroups(tab, k)
					for _, ei := range tab.Own(k) {
						if tab.Red[ei] {
							if red == nil {
								red = make(map[int]bool)
							}
							red[int(ei)] = true
						}
					}
				}
				if want := oraclePrincipalsAt(p, id); !slices.Equal(principals, want) {
					t.Errorf("principals at %s = %v, oracle %v", id, principals, want)
				}
				if want := len(oracleExchangesOf(p, id)); degree != want {
					t.Errorf("Degree(%s) = %d, oracle %d", id, degree, want)
				}
				if want := oracleConjunctionGroups(p, id); !slices.EqualFunc(groups, want, slices.Equal) {
					t.Errorf("conjunction groups of %s = %v, oracle %v", id, groups, want)
				}
				if want := oracleRedExchangesOf(p, id); !maps.Equal(red, want) {
					t.Errorf("red exchanges of %s = %v, oracle %v", id, red, want)
				}
			}
			// The rows the analysis path reads directly: a principal's
			// unsplit Rest row and each exchange's persona flag.
			for k, pa := range p.Parties {
				mine, split := oracleSplit(p, pa.ID)
				var rest []int32
				for _, ei := range mine {
					if !split[ei] {
						rest = append(rest, int32(ei))
					}
				}
				if got := tab.Rest(k); !slices.Equal(got, rest) {
					t.Errorf("Rest(%s) = %v, oracle %v", pa.ID, got, rest)
				}
			}
			for ei, e := range p.Exchanges {
				q, ok := oraclePersonaOf(p, e.Trusted)
				if want := ok && q == e.Principal; tab.AtPersona[ei] != want {
					t.Errorf("AtPersona[%d] = %v, oracle %v", ei, tab.AtPersona[ei], want)
				}
			}
			// Each offer's resolved collateral and self-insurance, against
			// the exchange scans Greedy still prices candidates with.
			for oi, off := range p.Indemnities {
				want := off.Amount
				if want == 0 {
					want = model.RequiredIndemnity(p, off.Covers)
				}
				if got := tab.Collateral(oi); got != want {
					t.Errorf("Collateral(%d) = %v, oracle %v", oi, got, want)
				}
				if got, want := tab.SelfInsured(oi), model.SelfInsured(p, off); got != want {
					t.Errorf("SelfInsured(%d) = %v, oracle %v", oi, got, want)
				}
			}
		})
	}
	if indemnified < 8 || personas < 8 || red < 8 {
		t.Fatalf("corpus too thin: %d problems with indemnity offers, %d personas, %d principals with red exchanges",
			indemnified, personas, red)
	}
}

// Each party's offer row is the scan of the indemnity offers with a
// post whose collateral it holds, for every party of every corpus
// problem and of populations whose consumers each cover their own
// purchase.
func TestOfferRowsMatchScan(t *testing.T) {
	t.Parallel()
	corpus := accessorCorpus(t)
	for _, n := range []int{1, 2, 10, 100} {
		p := gen.Population(n, 0, 10)
		for ei := 0; ei < len(p.Exchanges); ei += 4 {
			e := p.Exchanges[ei]
			p.Indemnities = append(p.Indemnities, model.IndemnityOffer{By: e.Principal, Covers: ei, Via: e.Trusted})
		}
		corpus[fmt.Sprintf("gen-population-%d-self-offered", n)] = p
	}
	held := 0
	for name, p := range corpus {
		tab := model.MustCompile(p).ActionTable()
		for k, pa := range p.Parties {
			var scan []int32
			for oi, off := range p.Indemnities {
				if off.Via == pa.ID && tab.Post[oi] >= 0 {
					scan = append(scan, int32(oi))
				}
			}
			if row := tab.OffersVia(k); !slices.Equal(row, scan) {
				t.Fatalf("%s: OffersVia(%s) = %v, want %v", name, pa.ID, row, scan)
			}
			held += len(scan)
		}
	}
	if held < 100 {
		t.Fatalf("the corpus posts only %d offers", held)
	}
}
