package core

import (
	"fmt"
	"time"

	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/sequencing"
)

// IncrementalOutcome says how an incremental synthesis was served.
type IncrementalOutcome int

const (
	// IncrementalReused: the edit left every row the sequencing graph
	// reads unchanged (e.g. a price retune), so the base graph and
	// reduction were rebound to the edited problem.
	IncrementalReused IncrementalOutcome = iota
	// IncrementalFull: the edit changed the graph and the full pipeline
	// ran.
	IncrementalFull
)

// String names the outcome the way the counters report it.
func (o IncrementalOutcome) String() string {
	if o == IncrementalReused {
		return "reused"
	}
	return "full"
}

// IncrementalInfo reports how SynthesizeIncremental served a request.
type IncrementalInfo struct {
	Outcome IncrementalOutcome
}

// Patched reports whether the base analysis was actually exploited —
// the service maps this to X-Trustd-Incremental: patched|full.
func (i IncrementalInfo) Patched() bool { return i.Outcome == IncrementalReused }

// SynthesizeIncremental analyses edited by reusing a base plan. When
// sequencing.SameGraph finds the rows the sequencing graph reads equal
// to the base problem's, the graph — and so the reduction, which is a
// function of it — is the base's, and both are rebound to edited;
// otherwise the full pipeline runs. It also runs for a base from
// SynthesizeWith, whose removal order is its caller's. The returned
// plan is byte-identical to what SynthesizeObs(edited, tel) would
// produce — verdict, removal trace, and execution steps — which the
// edit-fuzzer property suite enforces across the generator families.
//
// base must be a plan from a prior Synthesize* call and is never
// mutated, so one resident base can serve concurrent edits. Telemetry
// records the per-outcome counters and latency, plus SynthesizeObs's
// span on a full re-analysis; nil disables it.
func SynthesizeIncremental(base *Plan, edited *model.Compiled, tel *obs.Telemetry) (*Plan, IncrementalInfo, error) {
	start := time.Now()
	if base == nil || base.Reduction == nil || base.customOrder || !sequencing.SameGraph(base.Problem, edited) {
		plan, err := SynthesizeObs(edited, tel)
		info := IncrementalInfo{Outcome: IncrementalFull}
		observeIncremental(tel, info, start, err)
		return plan, info, err
	}
	red := base.Reduction.Rebind(edited)
	plan := &Plan{
		Problem:    edited,
		Sequencing: red.Graph,
		Reduction:  red,
		Feasible:   red.Feasible(),
	}
	info := IncrementalInfo{Outcome: IncrementalReused}
	if plan.Feasible {
		// schedule replays the removal trace against the edited problem's
		// amounts, exactly as the full pipeline would — the trace is the
		// one the edited graph reduces to, so the steps are too.
		if err := plan.schedule(); err != nil {
			err = fmt.Errorf("core: scheduling reused reduction: %w", err)
			observeIncremental(tel, info, start, err)
			return nil, info, err
		}
	}
	observeIncremental(tel, info, start, nil)
	return plan, info, nil
}

// observeIncremental records the per-outcome counters and latency.
func observeIncremental(tel *obs.Telemetry, info IncrementalInfo, start time.Time, err error) {
	if !tel.Enabled() {
		return
	}
	reg := tel.Reg()
	reg.Counter("core.incremental." + info.Outcome.String()).Inc()
	if err != nil {
		reg.Counter("core.incremental.errors").Inc()
	}
	reg.Histogram("core.incremental.seconds", obs.DurationBuckets()).Observe(time.Since(start).Seconds())
}
