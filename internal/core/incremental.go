package core

import (
	"fmt"
	"time"

	"trustseq/internal/interaction"
	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/sequencing"
)

// IncrementalOutcome says how an incremental synthesis was served.
type IncrementalOutcome int

const (
	// IncrementalReused: the edit left the sequencing graph untouched
	// (e.g. a price retune) and the base reduction was reused outright.
	IncrementalReused IncrementalOutcome = iota
	// IncrementalRereduced: the graph was patched on the edit's frontier
	// and re-reduced on the pooled state.
	IncrementalRereduced
	// IncrementalFull: the edit was structural and the full pipeline ran.
	IncrementalFull
)

// String names the outcome the way the counters report it.
func (o IncrementalOutcome) String() string {
	switch o {
	case IncrementalReused:
		return "reused"
	case IncrementalRereduced:
		return "rereduced"
	default:
		return "full"
	}
}

// IncrementalInfo reports how SynthesizeIncremental served a request.
type IncrementalInfo struct {
	Outcome IncrementalOutcome
	// Kind is the model-level classification of the edit.
	Kind model.DiffKind
	// Frontier is the number of graph elements the edit dirtied (0 when
	// reused or full).
	Frontier int
}

// Patched reports whether the base analysis was actually exploited —
// the service maps this to X-Trustd-Incremental: patched|full.
func (i IncrementalInfo) Patched() bool { return i.Outcome != IncrementalFull }

// SynthesizeIncremental analyses edited by reusing a base plan:
// model.Diff classifies the edit, sequencing.Patch rebuilds only the
// dirtied frontier of the sequencing graph, and structural edits fall
// back to the full pipeline. The returned plan is byte-identical to
// what SynthesizeObs(edited, tel) would produce — verdict, removal
// trace, and execution steps — which the edit-fuzzer property suite
// enforces across the generator families.
//
// base must be a plan from a prior Synthesize* call and is never
// mutated, so one resident base can serve concurrent edits. Telemetry
// records the per-outcome counters and latency, plus SynthesizeObs's
// span on a full re-analysis; nil disables it.
func SynthesizeIncremental(base *Plan, edited *model.Compiled, tel *obs.Telemetry) (*Plan, IncrementalInfo, error) {
	start := time.Now()
	full := func(kind model.DiffKind) (*Plan, IncrementalInfo, error) {
		plan, err := SynthesizeObs(edited, tel)
		info := IncrementalInfo{Outcome: IncrementalFull, Kind: kind}
		observeIncremental(tel, info, start, err)
		return plan, info, err
	}
	if base == nil || base.Sequencing == nil || base.Reduction == nil {
		return full(model.DiffStructural)
	}
	delta := model.Diff(&base.Problem.Problem, &edited.Problem)
	if delta.Kind == model.DiffStructural {
		return full(delta.Kind)
	}
	res, ok := sequencing.Patch(base.Sequencing, base.Reduction, edited, &delta)
	if !ok {
		return full(delta.Kind)
	}
	plan := &Plan{
		Problem:     edited,
		Interaction: interaction.New(edited),
		Sequencing:  res.Graph,
		Reduction:   res.Reduction,
		Feasible:    res.Reduction.Feasible(),
	}
	info := IncrementalInfo{Outcome: IncrementalRereduced, Kind: delta.Kind, Frontier: res.Frontier}
	if res.Outcome == sequencing.PatchReused {
		info.Outcome = IncrementalReused
	}
	if plan.Feasible {
		// schedule replays the removal trace against the edited problem's
		// amounts, exactly as the full pipeline would — the trace is
		// bit-identical by Patch's contract, so the steps are too.
		if err := plan.schedule(); err != nil {
			err = fmt.Errorf("core: scheduling patched reduction: %w", err)
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
