package indemnity

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden")

// Greedy, InOrder (candidates ascending and descending) and Optimal
// return the Results pinned in testdata/results.golden on the paper's
// fixtures and every generator family. Regenerate the file with
// go test -run TestResultsPinned -update ./internal/indemnity.
func TestResultsPinned(t *testing.T) {
	t.Parallel()
	corpus := paperex.All()
	corpus["gen-pair"] = gen.Pair(10)
	corpus["gen-chain"] = gen.Chain(3, 100)
	corpus["gen-star"] = gen.Star([]model.Money{10, 20, 30})
	corpus["gen-population"] = gen.Population(3, 0, 10)
	corpus["gen-parallel"] = gen.Parallel(3, 10)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		corpus[fmt.Sprintf("gen-random-%02d", seed)] = gen.Random(rng, gen.Options{
			Consumers: 1 + rng.Intn(2), Brokers: 1 + rng.Intn(3), Producers: 1 + rng.Intn(3),
			MaxPrice: 50, PoorBroker: seed%3 == 0, DirectTrustProb: float64(seed%4) * 0.3,
		})
	}
	var b strings.Builder
	var names []string
	for name := range corpus {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		p := corpus[name]
		cands := Candidates(model.MustCompile(p))
		var covers []int
		for _, c := range cands {
			covers = append(covers, c.Covers)
		}
		slices.Sort(covers)
		reversed := slices.Clone(covers)
		slices.Reverse(reversed)
		row := func(label string, res Result, err error) {
			fmt.Fprintf(&b, "%s %s:", name, label)
			if err != nil {
				fmt.Fprintf(&b, " error %v\n", err)
				return
			}
			for _, sp := range res.Splits {
				o := sp.Offer
				fmt.Fprintf(&b, " %d(%s via %s, %v)=%v", sp.Covers, o.By, o.Via, o.Amount, sp.Amount)
			}
			fmt.Fprintf(&b, " total %v feasible=%v\n", res.Total, res.Feasible)
		}
		res, err := Greedy(model.MustCompile(p))
		row("greedy", res, err)
		res, err = InOrder(model.MustCompile(p), covers)
		row(fmt.Sprintf("in-order%v", covers), res, err)
		res, err = InOrder(model.MustCompile(p), reversed)
		row(fmt.Sprintf("in-order%v", reversed), res, err)
		res, err = Optimal(model.MustCompile(p))
		row("optimal", res, err)
	}
	const golden = "testdata/results.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("results differ from %s:\n%s", golden, got)
	}
}
