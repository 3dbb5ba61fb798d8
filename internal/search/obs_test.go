package search

import (
	"reflect"
	"strings"
	"testing"

	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/paperex"
)

// TestObsDoesNotChangeVerdicts pins the telemetry contract: the obs
// variants must return exactly the plain verdicts (witness and explored
// count included for the serial search), and the memo counters must add
// up — every serial lookup is either a hit or a fresh expansion.
func TestObsDoesNotChangeVerdicts(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		for _, mode := range []Mode{ModeAssets, ModeStrong} {
			plain, err := Feasible(p, mode)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tel := &obs.Telemetry{Tracer: obs.NewTracer(obs.NewRingSink(1 << 14)), Metrics: obs.NewRegistry()}
			traced, err := FeasibleObs(model.MustCompile(p), mode, 1, tel)
			if err != nil {
				t.Fatalf("%s traced: %v", name, err)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("%s mode=%v: traced verdict %+v != plain %+v", name, mode, traced, plain)
			}
			misses := tel.Metrics.Counter("search.memo.misses").Value()
			if int(misses) != traced.Explored {
				t.Errorf("%s mode=%v: misses %d != explored %d", name, mode, misses, traced.Explored)
			}

			parTel := &obs.Telemetry{Tracer: obs.NewTracer(obs.NewRingSink(1 << 14)), Metrics: obs.NewRegistry()}
			par, err := FeasibleObs(model.MustCompile(p), mode, 3, parTel)
			if err != nil {
				t.Fatalf("%s parallel traced: %v", name, err)
			}
			if par.Feasible != plain.Feasible {
				t.Errorf("%s mode=%v: parallel traced feasible %v != %v", name, mode, par.Feasible, plain.Feasible)
			}
			// Per-shard tallies must sum to the aggregates.
			snap := parTel.Metrics.Snapshot()
			var shardHits, shardMisses int64
			for cname, v := range snap.Counters {
				if !strings.HasPrefix(cname, "search.memo.shard") {
					continue
				}
				switch {
				case strings.HasSuffix(cname, ".hits"):
					shardHits += v
				case strings.HasSuffix(cname, ".misses"):
					shardMisses += v
				}
			}
			if shardHits != snap.Counters["search.memo.hits"] || shardMisses != snap.Counters["search.memo.misses"] {
				t.Errorf("%s mode=%v: shard tallies (%d,%d) != aggregates (%d,%d)",
					name, mode, shardHits, shardMisses,
					snap.Counters["search.memo.hits"], snap.Counters["search.memo.misses"])
			}
		}
	}
}

// TestObsSpansEmitted confirms the span shape: one search.feasible span
// per search with start and end records carrying the verdict.
func TestObsSpansEmitted(t *testing.T) {
	t.Parallel()
	ring := obs.NewRingSink(1 << 12)
	tel := &obs.Telemetry{Tracer: obs.NewTracer(ring), Metrics: obs.NewRegistry()}
	if _, err := FeasibleObs(model.MustCompile(paperex.Example1()), ModeAssets, 1, tel); err != nil {
		t.Fatal(err)
	}
	var start, end bool
	for _, e := range ring.Events() {
		if e.Name == "search.feasible" {
			switch e.Type {
			case obs.TypeSpanStart:
				start = true
			case obs.TypeSpanEnd:
				end = true
			}
		}
	}
	if !start || !end {
		t.Errorf("span records missing: start=%v end=%v (%d events)", start, end, ring.Total())
	}
}
