package indemnity

import (
	"fmt"
	"slices"
	"sort"

	"trustseq/internal/model"
	"trustseq/internal/sequencing"
)

// Split is one indemnification step: posting Amount splits exchange
// Covers out of its principal's conjunction.
type Split struct {
	Covers int
	Offer  model.IndemnityOffer
	Amount model.Money
}

// Result is a full indemnification: the ordered splits and their total.
type Result struct {
	Splits []Split
	Total  model.Money
	// Feasible reports whether the problem, with these splits applied,
	// reduces to a feasible sequencing graph.
	Feasible bool
}

// String renders the result in the style of Figure 7's captions.
func (r Result) String() string {
	if len(r.Splits) == 0 {
		if r.Feasible {
			return "no indemnities needed"
		}
		return "no indemnification found"
	}
	s := ""
	for i, sp := range r.Splits {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%s sets %s aside covering exchange %d", sp.Offer.By, sp.Amount, sp.Covers)
	}
	return fmt.Sprintf("%s — total %s (feasible=%v)", s, r.Total, r.Feasible)
}

// feasible reduces the problem's (split-aware) sequencing graph.
func feasible(p *model.Compiled) bool {
	return sequencing.Reduce(sequencing.Build(p), nil).Feasible()
}

// Candidates returns the splittable exchanges of the problem: exchanges
// whose principal has a type-2 conjunction (a pure all-or-nothing
// conjunction with no red edges — the paper only splits "a conjunctive
// edge of the second type") with at least two members, not yet covered by
// an offer. For each, the counterpart seller and shared trusted
// intermediary are resolved so a concrete offer can be formed.
func Candidates(p *model.Compiled) []model.IndemnityOffer {
	t := p.ActionTable()
	covered := make(map[int]bool, len(p.Indemnities))
	for _, off := range p.Indemnities {
		covered[off.Covers] = true
	}
	var out []model.IndemnityOffer
	for ei, e := range p.Exchanges {
		if covered[ei] {
			continue
		}
		pr := t.Principal[ei]
		if slices.ContainsFunc(t.Own(int(pr)), func(ej int32) bool { return t.Red[ej] }) {
			continue // type-3 conjunction: ordering, not splittable
		}
		// An uncovered exchange is in its principal's unsplit Rest row,
		// the one group that can hold two members.
		if len(t.Rest(int(pr))) < 2 {
			continue
		}
		seller, ok := counterpartSeller(p, ei)
		if !ok {
			continue
		}
		out = append(out, model.IndemnityOffer{
			By:     seller,
			Covers: ei,
			Via:    e.Trusted,
		})
	}
	return out
}

// counterpartSeller finds the principal on the other side of the covered
// exchange's trusted component that provides the covered goods.
func counterpartSeller(p *model.Compiled, covers int) (model.PartyID, bool) {
	cov := p.Exchanges[covers]
	for _, e := range p.Exchanges {
		if e.Trusted != cov.Trusted || e.Principal == cov.Principal {
			continue
		}
		provides := true
		for _, it := range cov.Gets.Items {
			if !e.Gives.HasItem(it) {
				provides = false
				break
			}
		}
		if provides && len(cov.Gets.Items) > 0 {
			return e.Principal, true
		}
	}
	return "", false
}

// subtreeCost is the cost the protected principal pays on the exchange —
// the paper orders indemnities by "the subtree with the highest cost".
func subtreeCost(p *model.Compiled, covers int) model.Money {
	return p.Exchanges[covers].Gives.Amount
}

// Greedy runs the Section 6 greedy algorithm: while the problem is
// infeasible, indemnify the splittable exchange with the highest cost
// (ties broken by exchange index for determinism). Because the indemnity
// for a piece is the total of all OTHER pieces, indemnifying expensive
// pieces first leaves the cheapest piece — which would need the largest
// collateral — uncovered, minimizing the total. Each split compiles the
// problem with the chosen offers appended.
func Greedy(p *model.Compiled) (Result, error) {
	work := p.Clone()
	var res Result
	for {
		if feasible(p) {
			res.Feasible = true
			return res, nil
		}
		cands := Candidates(p)
		if len(cands) == 0 {
			return res, nil
		}
		sort.Slice(cands, func(i, j int) bool {
			ci, cj := subtreeCost(p, cands[i].Covers), subtreeCost(p, cands[j].Covers)
			if ci != cj {
				return ci > cj
			}
			return cands[i].Covers < cands[j].Covers
		})
		chosen := cands[0]
		amount := model.RequiredIndemnity(work, chosen.Covers)
		work.Indemnities = append(work.Indemnities, chosen)
		var err error
		if p, err = model.Compile(work); err != nil {
			return Result{}, err
		}
		res.Splits = append(res.Splits, Split{Covers: chosen.Covers, Offer: chosen, Amount: amount})
		res.Total += amount
	}
}

// InOrder applies indemnities covering the given exchanges in the given
// order, stopping as soon as the problem becomes feasible. It returns
// the resulting total — the device of Figure 7, which contrasts order
// (doc1, doc2) at $90 with order (doc3, doc2) at $70.
func InOrder(p *model.Compiled, covers []int) (Result, error) {
	work := p.Clone()
	var res Result
	for _, ci := range covers {
		if feasible(p) {
			res.Feasible = true
			return res, nil
		}
		seller, found := counterpartSeller(p, ci)
		if !found {
			return Result{}, fmt.Errorf("indemnity: no counterpart seller for exchange %d", ci)
		}
		off := model.IndemnityOffer{By: seller, Covers: ci, Via: work.Exchanges[ci].Trusted}
		amount := model.RequiredIndemnity(work, ci)
		work.Indemnities = append(work.Indemnities, off)
		var err error
		if p, err = model.Compile(work); err != nil {
			return Result{}, err
		}
		res.Splits = append(res.Splits, Split{Covers: ci, Offer: off, Amount: amount})
		res.Total += amount
	}
	res.Feasible = feasible(p)
	return res, nil
}

// Optimal brute-forces every subset-order of candidate splits and returns
// a minimum-total feasible result. Exponential; intended for validating
// Greedy on small instances. Because the required amount of each split
// is order-independent (always the sum of the other pieces' costs), it
// suffices to enumerate subsets.
func Optimal(p *model.Compiled) (Result, error) {
	cands := Candidates(p)
	if feasible(p) {
		return Result{Feasible: true}, nil
	}
	best := Result{}
	found := false
	n := len(cands)
	if n > 20 {
		return Result{}, fmt.Errorf("indemnity: %d candidates is too many for brute force", n)
	}
	for mask := 1; mask < 1<<n; mask++ {
		work := p.Clone()
		var res Result
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			off := cands[i]
			amount := model.RequiredIndemnity(work, off.Covers)
			work.Indemnities = append(work.Indemnities, off)
			res.Splits = append(res.Splits, Split{Covers: off.Covers, Offer: off, Amount: amount})
			res.Total += amount
		}
		c, err := model.Compile(work)
		if err != nil {
			return Result{}, err
		}
		if !feasible(c) {
			continue
		}
		res.Feasible = true
		if !found || res.Total < best.Total {
			best = res
			found = true
		}
	}
	if !found {
		return Result{}, nil
	}
	return best, nil
}
