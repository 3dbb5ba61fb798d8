package sim

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/paperex"
)

// Every fault kind, in isolation: the injector really fires (its
// counter is nonzero on at least one seed), the run is tick-for-tick
// deterministic — same seed, identical trace and accounting — and
// attaching telemetry changes nothing. Table-driven so each new
// injector lands here with one entry.
func TestFaultKindsDeterministic(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		opts    Options // Seed is set per iteration
		counter func(FaultStats) int
	}{
		{
			name:    "dup",
			opts:    Options{Deadline: 60, Faults: &FaultPlan{DupRate: 0.5}},
			counter: func(st FaultStats) int { return st.DupNotifies },
		},
		{
			name:    "reorder",
			opts:    Options{Deadline: 60, Faults: &FaultPlan{ReorderRate: 0.6, ReorderBound: 7}},
			counter: func(st FaultStats) int { return st.Reorders },
		},
		{
			name:    "spike",
			opts:    Options{Deadline: 60, Faults: &FaultPlan{SpikeRate: 0.3, SpikeTicks: 70}},
			counter: func(st FaultStats) int { return st.Spikes },
		},
		{
			name: "partition",
			opts: Options{Deadline: 60, Faults: &FaultPlan{Partitions: []Partition{
				{A: paperex.Trusted2, B: paperex.Broker, From: 0, Until: 30},
			}}},
			counter: func(st FaultStats) int { return st.PartitionDrops + st.Deferred },
		},
		{
			name: "crash-restart",
			opts: Options{Deadline: 60, Faults: &FaultPlan{Crashes: []CrashEvent{
				{Node: paperex.Trusted1, At: 4, Downtime: 15},
			}}},
			counter: func(st FaultStats) int { return st.Crashes + st.Restarts },
		},
		{
			name:    "drop-with-retries",
			opts:    Options{Deadline: 60, NotifyDropRate: 0.4, NotifyRetries: 2},
			counter: func(st FaultStats) int { return st.RetriesSent },
		},
	}
	pl := plan(t, paperex.Example1())
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fired := false
			for seed := int64(0); seed < 12; seed++ {
				opts := tc.opts
				opts.Seed = seed
				opts.Jitter = 4
				a, err := Run(pl, opts)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				b, err := Run(pl, opts)
				if err != nil {
					t.Fatalf("seed %d rerun: %v", seed, err)
				}
				traced := opts
				traced.Obs = &obs.Telemetry{
					Metrics: obs.NewRegistry(),
					Tracer:  obs.NewTracer(obs.NewJSONLSink(io.Discard)),
				}
				c, err := Run(pl, traced)
				if err != nil {
					t.Fatalf("seed %d traced: %v", seed, err)
				}
				ta, tb, tcr := RenderTrace(a.Trace), RenderTrace(b.Trace), RenderTrace(c.Trace)
				if ta != tb {
					t.Fatalf("seed %d: rerun diverged:\n--- a ---\n%s--- b ---\n%s", seed, ta, tb)
				}
				if ta != tcr {
					t.Fatalf("seed %d: telemetry changed the schedule:\n--- bare ---\n%s--- traced ---\n%s", seed, ta, tcr)
				}
				if a.Duration != b.Duration || a.FaultStats != b.FaultStats ||
					a.Duration != c.Duration || a.FaultStats != c.FaultStats {
					t.Fatalf("seed %d: accounting diverged: %+v / %+v / %+v",
						seed, a.FaultStats, b.FaultStats, c.FaultStats)
				}
				if tc.counter(a.FaultStats) > 0 {
					fired = true
				}
			}
			if !fired {
				t.Errorf("injector %q never fired on any seed", tc.name)
			}
		})
	}
}

// A nil or zero plan injects nothing and changes nothing: the RNG
// stream, trace and outcome are byte-identical to a run with no plan at
// all (the compatibility guarantee that keeps every pre-chaos seeded
// test valid).
func TestZeroFaultPlanIsIdentity(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.Example2Indemnified())
	for seed := int64(0); seed < 10; seed++ {
		bare, err := Run(pl, Options{Seed: seed, Jitter: 5, Deadline: 80})
		if err != nil {
			t.Fatal(err)
		}
		zeroed, err := Run(pl, Options{Seed: seed, Jitter: 5, Deadline: 80, Faults: &FaultPlan{}})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := RenderTrace(bare.Trace), RenderTrace(zeroed.Trace); a != b {
			t.Fatalf("seed %d: zero plan altered the run:\n--- bare ---\n%s--- zero ---\n%s", seed, a, b)
		}
		if bare.Duration != zeroed.Duration {
			t.Fatalf("seed %d: durations diverge: %d vs %d", seed, bare.Duration, zeroed.Duration)
		}
	}
}

func TestFaultPlanValidate(t *testing.T) {
	t.Parallel()
	p := paperex.Example1()
	cases := []struct {
		name string
		fp   *FaultPlan
		ok   bool
	}{
		{"nil", nil, true},
		{"zero", &FaultPlan{}, true},
		{"full", &FaultPlan{
			DupRate: 0.2, ReorderRate: 0.3, ReorderBound: 4, SpikeRate: 0.1, SpikeTicks: 50,
			Partitions: []Partition{{A: paperex.Consumer, B: paperex.Trusted1, From: 2, Until: 9}},
			Crashes:    []CrashEvent{{Node: paperex.Trusted1, At: 3, Downtime: 5}},
		}, true},
		{"dup-rate-one", &FaultPlan{DupRate: 1.0}, false},
		{"negative-rate", &FaultPlan{SpikeRate: -0.1}, false},
		{"reorder-without-bound", &FaultPlan{ReorderRate: 0.5}, false},
		{"spike-without-ticks", &FaultPlan{SpikeRate: 0.5}, false},
		{"partition-self-link", &FaultPlan{Partitions: []Partition{
			{A: paperex.Consumer, B: paperex.Consumer, From: 0, Until: 5}}}, false},
		{"partition-unknown-party", &FaultPlan{Partitions: []Partition{
			{A: paperex.Consumer, B: "ghost", From: 0, Until: 5}}}, false},
		{"partition-empty-window", &FaultPlan{Partitions: []Partition{
			{A: paperex.Consumer, B: paperex.Broker, From: 5, Until: 5}}}, false},
		{"crash-untrusted-node", &FaultPlan{Crashes: []CrashEvent{
			{Node: paperex.Broker, At: 1, Downtime: 5}}}, false},
		{"crash-zero-downtime", &FaultPlan{Crashes: []CrashEvent{
			{Node: paperex.Trusted1, At: 1, Downtime: 0}}}, false},
		{"crash-overlapping-windows", &FaultPlan{Crashes: []CrashEvent{
			{Node: paperex.Trusted1, At: 1, Downtime: 10},
			{Node: paperex.Trusted1, At: 5, Downtime: 3}}}, false},
		{"crash-back-to-back", &FaultPlan{Crashes: []CrashEvent{
			{Node: paperex.Trusted1, At: 1, Downtime: 4},
			{Node: paperex.Trusted1, At: 5, Downtime: 3}}}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			err := tc.fp.Validate(model.MustCompile(p))
			if tc.ok && err != nil {
				t.Errorf("Validate = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Validate accepted an invalid plan")
			}
		})
	}
}

// Run rejects invalid plans up front instead of simulating nonsense.
func TestRunRejectsInvalidPlan(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.Example1())
	_, err := Run(pl, Options{Faults: &FaultPlan{DupRate: 2}})
	if err == nil || !strings.Contains(err.Error(), "DupRate") {
		t.Fatalf("Run = %v, want DupRate validation error", err)
	}
}

func TestParseFaultMenu(t *testing.T) {
	t.Parallel()
	cases := []struct {
		spec string
		want FaultMenu
		ok   bool
	}{
		{"", FaultMenu{}, true},
		{"none", FaultMenu{}, true},
		{"all", AllFaults(), true},
		{"dup,crash", FaultMenu{Dup: true, Crash: true}, true},
		{" spike , drop ", FaultMenu{Spike: true, Drop: true}, true},
		{"reorder,partition", FaultMenu{Reorder: true, Partition: true}, true},
		{"bogus", FaultMenu{}, false},
		{"dup,quantum", FaultMenu{}, false},
	}
	for _, tc := range cases {
		got, err := ParseFaultMenu(tc.spec)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseFaultMenu(%q) = %+v, %v; want %+v", tc.spec, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseFaultMenu(%q) accepted an unknown family", tc.spec)
		}
	}
}

func TestFaultMenuString(t *testing.T) {
	t.Parallel()
	if got := AllFaults().String(); got != "all" {
		t.Errorf("AllFaults().String() = %q", got)
	}
	if got := (FaultMenu{}).String(); got != "none" {
		t.Errorf("zero menu String() = %q", got)
	}
	m := FaultMenu{Dup: true, Crash: true}
	if got := m.String(); got != "dup,crash" {
		t.Errorf("String() = %q, want dup,crash", got)
	}
	// String output round-trips through the parser.
	back, err := ParseFaultMenu(m.String())
	if err != nil || back != m {
		t.Errorf("round-trip = %+v, %v", back, err)
	}
}

// SampleFaultPlan only draws from the enabled families and always
// validates against the problem it was sampled for.
func TestSampleFaultPlanRespectsMenu(t *testing.T) {
	t.Parallel()
	p := model.MustCompile(paperex.Example1())
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		fp := SampleFaultPlan(rng, p, FaultMenu{Dup: true, Crash: true}, 60)
		if err := fp.Validate(p); err != nil {
			t.Fatalf("sampled plan invalid: %v", err)
		}
		if fp.DupRate <= 0 || len(fp.Crashes) == 0 {
			t.Fatalf("enabled families not sampled: %+v", fp)
		}
		if fp.ReorderRate != 0 || fp.SpikeRate != 0 || len(fp.Partitions) != 0 {
			t.Fatalf("disabled families sampled: %+v", fp)
		}
		for _, ev := range fp.Crashes {
			pa, ok := p.Party(ev.Node)
			if !ok || !pa.IsTrusted() {
				t.Fatalf("crash sampled for untrusted %s", ev.Node)
			}
		}
	}
}
