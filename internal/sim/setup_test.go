package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/model"
)

// selfOffered is gen.Population(n, 0, 10) with every consumer offering
// indemnity on its own purchase, held by the purchase's trusted
// component: `indemnify cK covers cK via trK`.
func selfOffered(n int) *model.Problem {
	p := gen.Population(n, 0, 10)
	for ei := 0; ei < len(p.Exchanges); ei += 4 {
		e := p.Exchanges[ei]
		p.Indemnities = append(p.Indemnities, model.IndemnityOffer{By: e.Principal, Covers: ei, Via: e.Trusted})
	}
	return p
}

// An offerer covering its own exchange posts without waiting for the
// confirmation of that very post: the plan verifies, and a fault-free
// run completes every exchange in 13 messages per consumer.
func TestSelfCoveringOfferCompletes(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 10, 100} {
		pl := plan(t, selfOffered(n))
		if n <= 10 { // Verify's cost grows steeply with the offers
			if err := pl.Verify(); err != nil {
				t.Fatalf("n=%d: Verify: %v", n, err)
			}
		}
		res := run(t, pl, Options{Seed: 1, Deadline: 20000})
		if !res.Completed() || len(res.Faults) > 0 || res.Messages != 13*n {
			t.Fatalf("n=%d: completed=%v after %d messages, faults %v", n, res.Completed(), res.Messages, res.Faults)
		}
	}
}

// Setting up a run allocates a fixed number of slabs, not a few objects
// per node: a 4000-consumer population's setup allocates within a small
// constant of a 1000-consumer one's.
func TestSetupAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		pl := plan(t, gen.Population(n, 0, 10))
		return testing.AllocsPerRun(3, func() {
			if _, err := setupRun(pl, Options{Seed: 1, Deadline: 20000}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(4000)
	if large > small+8 {
		t.Fatalf("setupRun allocates %v times at 1000 consumers and %v at 4000: it grows with the nodes", small, large)
	}
}

// A network initialises its nodes in the order of a plain sort of the
// party IDs, over every generator family, the paper's fixtures and IDs
// that tie on their first eight bytes, prefix one another, are empty or
// run past eight bytes.
func TestByIDMatchesSort(t *testing.T) {
	t.Parallel()
	tricky := []model.PartyID{"consumer10", "consumer1", "consumer", "consumer2", "consumer1\x00", "c", "", "consumes", "consumer100", "\xff\xff", "a\x00", "a"}
	// byID compares few IDs directly and radix-sorts many: the tricky
	// IDs go through both paths.
	many := slices.Clone(tricky)
	for k := 0; k < 30; k++ {
		for _, id := range tricky {
			many = append(many, model.PartyID(fmt.Sprintf("%s%d", id, k)), model.PartyID(fmt.Sprintf("%d%s", k, id)))
		}
	}
	idSets := [][]model.PartyID{{}, tricky, many}
	rng := rand.New(rand.NewSource(29))
	random := make([]model.PartyID, 3000)
	for i := range random {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = "ab\x00\xff"[rng.Intn(4)]
		}
		random[i] = model.PartyID(fmt.Sprintf("%s%d", b, i))
	}
	idSets = append(idSets, random)
	problems := []*model.Problem{gen.Population(1000, 0, 10), gen.Population(40, 3, 10)}
	for _, pl := range chaosCorpus(t) {
		problems = append(problems, &pl.Problem.Problem)
	}
	for _, p := range problems {
		ids := make([]model.PartyID, 0, len(p.Parties))
		for _, pa := range p.Parties {
			ids = append(ids, pa.ID)
		}
		idSets = append(idSets, ids)
	}
	for _, ids := range idSets {
		want := make([]string, len(ids))
		for i, id := range ids {
			want[i] = string(id)
		}
		sort.Strings(want)
		got := make([]string, 0, len(ids))
		for _, k := range byID(ids) {
			got = append(got, string(ids[k]))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("byID orders %q, want %q", got, want)
		}
	}
}
