package petri

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/paperex"
	"trustseq/internal/search"
)

// pinCorpus is the fixed cross-check corpus: every paper fixture plus a
// deterministic sample of each generator family, small enough for the
// strong-mode search to stay fast.
func pinCorpus() map[string]*model.Problem {
	out := paperex.All()
	// b1's collateral protecting s1 at t2 is exactly b1's purchase price
	// there: the post is the same action value as b1's deposit on that
	// purchase, and the payout the same as s1's receipt.
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
	out["gen-parallel-2"] = gen.Parallel(2, 10)
	out["gen-population-2"] = gen.Population(2, 1, 10)
	for seed := int64(0); seed < 6; seed++ {
		p := gen.Random(rand.New(rand.NewSource(seed)), gen.Options{
			Consumers: 1, Brokers: 2, Producers: 2,
			MaxPrice: 30, DirectTrustProb: 0.25,
		})
		if len(p.Exchanges) <= 8 {
			out[fmt.Sprintf("gen-random-%d", seed)] = p
		}
	}
	return out
}

// crossCheckFingerprint runs both engines the way the cross-check does
// and renders everything the one-loop engines must keep: the serial
// search verdict, explored count and witness length in both modes, the
// bounded cover result at two budgets, and — with telemetry on — the
// petri.level event count plus every petri.* and search.memo.* counter.
func crossCheckFingerprint(t *testing.T, p *model.Problem) string {
	t.Helper()
	var b strings.Builder
	for _, mode := range []search.Mode{search.ModeAssets, search.ModeStrong} {
		v, err := search.Feasible(p, mode)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s=%v/%d/%d ", mode, v.Feasible, v.Explored, len(v.Sequence))
	}
	enc, err := FromProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	// The small budget caps the larger nets, pinning the capped exit.
	const budget, smallBudget = 1 << 17, 64
	res := enc.Completable(budget)
	fmt.Fprintf(&b, "petri=%v/%d/%v", res.Found, res.Explored, res.Capped)
	res = enc.Completable(smallBudget)
	fmt.Fprintf(&b, " petri%d=%v/%d/%v", smallBudget, res.Found, res.Explored, res.Capped)

	ring := obs.NewRingSink(1 << 14)
	tel := &obs.Telemetry{Tracer: obs.NewTracer(ring), Metrics: obs.NewRegistry()}
	for _, mode := range []search.Mode{search.ModeAssets, search.ModeStrong} {
		if _, err := search.FeasibleObs(model.MustCompile(p), mode, 1, tel); err != nil {
			t.Fatal(err)
		}
	}
	enc.CompletableObs(budget, tel, nil)
	levels := 0
	for _, e := range ring.Events() {
		if e.Name == "petri.level" {
			levels++
		}
	}
	fmt.Fprintf(&b, " levels=%d", levels)
	snap := tel.Metrics.Snapshot()
	var names []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, "petri.") || strings.HasPrefix(name, "search.memo.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%d", name, snap.Counters[name])
	}
	return b.String()
}

// TestCrossCheckPinned pins both cross-check engines, verdicts and
// explored counts included, to values recorded before the search and
// cover loops were merged: any change to exploration order, memo
// accounting or telemetry shows up here as a diff.
func TestCrossCheckPinned(t *testing.T) {
	t.Parallel()
	pinned := map[string]string{
		"example1":              "assets=true/5/4 strong=true/5/4 petri=true/13/false petri64=true/13/false levels=6 petri.collisions=0 petri.found=1 petri.states=13 search.memo.hits=0 search.memo.misses=10",
		"example1-poor-broker":  "assets=false/4/0 strong=false/4/0 petri=false/4/false petri64=false/4/false levels=3 petri.collisions=0 petri.states=4 search.memo.hits=2 search.memo.misses=8",
		"example2-coinciding":   "assets=true/9/8 strong=false/77/0 petri=true/466/false petri64=false/64/true levels=12 petri.collisions=0 petri.found=1 petri.states=466 search.memo.hits=120 search.memo.misses=86",
		"example2":              "assets=true/9/8 strong=false/77/0 petri=true/287/false petri64=false/64/true levels=12 petri.collisions=0 petri.found=1 petri.states=287 search.memo.hits=92 search.memo.misses=86",
		"example2-indemnified":  "assets=true/9/8 strong=true/9/8 petri=true/466/false petri64=false/64/true levels=12 petri.collisions=0 petri.found=1 petri.states=466 search.memo.hits=0 search.memo.misses=18",
		"example2-universal-ti": "assets=false/32/0 strong=false/32/0 petri=false/96/false petri64=false/64/true levels=7 petri.collisions=0 petri.states=96 search.memo.hits=130 search.memo.misses=64",
		"example2-variant1":     "assets=true/9/8 strong=false/109/0 petri=true/287/false petri64=false/64/true levels=12 petri.collisions=0 petri.found=1 petri.states=287 search.memo.hits=133 search.memo.misses=118",
		"example2-variant2":     "assets=true/9/8 strong=false/95/0 petri=true/287/false petri64=false/64/true levels=12 petri.collisions=0 petri.found=1 petri.states=287 search.memo.hits=133 search.memo.misses=104",
		"figure7":               "assets=true/13/12 strong=false/637/0 petri=true/7689/false petri64=false/64/true levels=18 petri.collisions=0 petri.found=1 petri.states=7689 search.memo.hits=1128 search.memo.misses=650",
		"gen-chain-1":           "assets=true/5/4 strong=true/5/4 petri=true/13/false petri64=true/13/false levels=6 petri.collisions=0 petri.found=1 petri.states=13 search.memo.hits=0 search.memo.misses=10",
		"gen-chain-2":           "assets=true/7/6 strong=true/7/6 petri=true/33/false petri64=true/33/false levels=9 petri.collisions=0 petri.found=1 petri.states=33 search.memo.hits=0 search.memo.misses=14",
		"gen-chain-3":           "assets=true/9/8 strong=true/9/8 petri=true/79/false petri64=false/64/true levels=12 petri.collisions=0 petri.found=1 petri.states=79 search.memo.hits=0 search.memo.misses=18",
		"gen-pair":              "assets=true/3/2 strong=true/3/2 petri=true/5/false petri64=true/5/false levels=3 petri.collisions=0 petri.found=1 petri.states=5 search.memo.hits=0 search.memo.misses=6",
		"gen-parallel-2":        "assets=true/5/4 strong=true/5/4 petri=true/25/false petri64=true/25/false levels=6 petri.collisions=0 petri.found=1 petri.states=25 search.memo.hits=0 search.memo.misses=10",
		"gen-population-2":      "assets=true/9/8 strong=true/11/8 petri=true/192/false petri64=false/64/true levels=12 petri.collisions=0 petri.found=1 petri.states=192 search.memo.hits=0 search.memo.misses=20",
		"gen-random-0":          "assets=true/5/4 strong=true/5/4 petri=true/13/false petri64=true/13/false levels=6 petri.collisions=0 petri.found=1 petri.states=13 search.memo.hits=0 search.memo.misses=10",
		"gen-random-2":          "assets=true/9/8 strong=false/69/0 petri=true/252/false petri64=false/64/true levels=12 petri.collisions=0 petri.found=1 petri.states=252 search.memo.hits=76 search.memo.misses=78",
		"gen-random-3":          "assets=true/9/8 strong=false/128/0 petri=true/825/false petri64=false/64/true levels=12 petri.collisions=0 petri.found=1 petri.states=825 search.memo.hits=161 search.memo.misses=137",
		"gen-random-4":          "assets=true/9/8 strong=false/65/0 petri=true/775/false petri64=false/64/true levels=12 petri.collisions=0 petri.found=1 petri.states=775 search.memo.hits=74 search.memo.misses=74",
		"gen-random-5":          "assets=true/5/4 strong=true/5/4 petri=true/13/false petri64=true/13/false levels=6 petri.collisions=0 petri.found=1 petri.states=13 search.memo.hits=0 search.memo.misses=10",
		"gen-star-2":            "assets=true/9/8 strong=false/77/0 petri=true/240/false petri64=false/64/true levels=12 petri.collisions=0 petri.found=1 petri.states=240 search.memo.hits=92 search.memo.misses=86",
	}
	corpus := pinCorpus()
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got := crossCheckFingerprint(t, corpus[name])
		if want, ok := pinned[name]; !ok || got != want {
			t.Errorf("%s differs from its pin; got\n\t%q: %q,", name, name, got)
		}
	}
	if len(pinned) != len(corpus) {
		t.Errorf("pinned %d cases, corpus has %d", len(pinned), len(corpus))
	}
}
