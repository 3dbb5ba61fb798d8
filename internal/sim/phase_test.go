package sim

import (
	"reflect"
	"testing"

	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/paperex"
)

// A traced run records its setup, loop, assemble and settlement phases
// as child spans of sim.run and as sim.phase.* histograms, and stays
// identical to an untraced run: same trace, settlement root and
// balances.
func TestRunPhaseTelemetry(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.All()["example2-indemnified"])
	opts := Options{Seed: 9, Jitter: 3, NotifyDropRate: 0.2, NotifyRetries: 1, VLog: true,
		Defectors: map[model.PartyID]int{paperex.Broker: 1}}
	bare := run(t, pl, opts)

	ring := obs.NewRingSink(1 << 12)
	opts.Obs = &obs.Telemetry{Tracer: obs.NewTracer(ring), Metrics: obs.NewRegistry()}
	traced := run(t, pl, opts)

	if !reflect.DeepEqual(bare.Trace, traced.Trace) {
		t.Fatal("the traced run's trace differs from the untraced run's")
	}
	if bare.SettlementRoot != traced.SettlementRoot {
		t.Fatalf("settlement root %s traced, %s untraced", traced.SettlementRoot, bare.SettlementRoot)
	}
	if bare.Summary() != traced.Summary() {
		t.Fatalf("balances differ:\n%s\nvs\n%s", traced.Summary(), bare.Summary())
	}

	var runSpan uint64
	children := map[string]int{}
	for _, e := range ring.Events() {
		if e.Type != obs.TypeSpanStart {
			continue
		}
		if e.Name == "sim.run" {
			runSpan = e.Span
			continue
		}
		if e.Parent == runSpan && runSpan != 0 {
			children[e.Name]++
		}
	}
	for _, phase := range []string{"setup", "loop", "assemble", "settlement"} {
		name := "sim.phase." + phase
		if children[name] != 1 {
			t.Errorf("%s: %d child spans of sim.run, want 1 (children: %v)", name, children[name], children)
		}
		if n := opts.Obs.Metrics.Histogram(name, obs.DurationBuckets()).Count(); n != 1 {
			t.Errorf("%s histogram observed %d times, want 1", name, n)
		}
	}
}
