package service

import (
	"fmt"
	"net/http"
	"strings"

	"trustseq/internal/core"
	"trustseq/internal/indemnity"
)

// RenderOptions is the former name of the text report's options, now
// AnalyzeOptions, whose Trace, Indemnify and Verify fields mirror the
// trustseq CLI flags -seq, -indemnify and -verify. The alias remains
// because perfbench, a separate module, still names it.
type RenderOptions = AnalyzeOptions

// Report derives the analysis report of a plan once: the problem
// summary, the verdict, the reduction trace, the execution sequence or
// impasse, the verification and the indemnity proposal, as opts selects.
// The cross-check and simulation sections are the service's to add. Both
// response bodies and the trustseq CLI render from it. A verification
// failure is a 500 *StatusError, not a report section: it means the
// synthesized plan is unsound, which the CLI treats as exit 1 and the
// service as an internal error; an indemnity search error is a 422.
func Report(plan *core.Plan, opts AnalyzeOptions) (*Result, error) {
	p := plan.Problem
	trusted := 0
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			trusted++
		}
	}
	res := &Result{
		Problem: ProblemInfo{
			Name:       p.Name,
			Principals: len(p.Parties) - trusted,
			Trusted:    trusted,
			Exchanges:  len(p.Exchanges) / 2,
		},
		Feasible: plan.Feasible,
	}
	if opts.Trace {
		res.Reduction = plan.Reduction.String()
	}
	if plan.Feasible {
		res.Sequence = plan.ExecutionSequence()
		for _, st := range plan.Steps {
			res.Steps = append(res.Steps, st.String())
		}
		if opts.Verify {
			if err := plan.Verify(); err != nil {
				return nil, &StatusError{
					Code: http.StatusInternalServerError,
					Msg:  fmt.Sprintf("verification FAILED: %v", err),
				}
			}
			ok := true
			res.Verified = &ok
		}
		return res, nil
	}
	res.Impasse = plan.Reduction.Impasse()
	if opts.Indemnify {
		prop, err := indemnity.Greedy(p)
		if err != nil {
			return nil, &StatusError{Code: http.StatusUnprocessableEntity, Msg: err.Error()}
		}
		res.Indemnity = &IndemnityInfo{Feasible: prop.Feasible}
		if prop.Feasible {
			res.Indemnity.Text = prop.String()
		}
	}
	return res, nil
}

// Text renders the report exactly as the trustseq CLI prints it — byte
// for byte, which cmd/trustseq enforces by rendering through it (and its
// parity test re-checks per spec). opts must be the options the report
// was derived with; only Trace is read, since an empty trace still
// prints its heading.
func (r *Result) Text(opts AnalyzeOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "problem %s: %d principals, %d trusted components, %d pairwise exchanges\n",
		r.Problem.Name, r.Problem.Principals, r.Problem.Trusted, r.Problem.Exchanges)
	if opts.Trace {
		fmt.Fprintln(&b, "\nreduction trace:")
		fmt.Fprint(&b, r.Reduction)
	}
	if r.Feasible {
		fmt.Fprintln(&b, "\nFEASIBLE — execution sequence:")
		fmt.Fprint(&b, r.Sequence)
		if r.Verified != nil {
			fmt.Fprintln(&b, "\nverified: every step keeps every participant's assets safe")
		}
		return b.String()
	}
	fmt.Fprintln(&b, "\nINFEASIBLE — impasse:")
	fmt.Fprintln(&b, r.Impasse)
	switch {
	case r.Indemnity == nil:
	case r.Indemnity.Feasible:
		fmt.Fprintln(&b, "\nminimal indemnification (Section 6 greedy):")
		fmt.Fprintln(&b, r.Indemnity.Text)
	default:
		fmt.Fprintln(&b, "\nno indemnification resolves the impasse (ordering constraints)")
	}
	return b.String()
}

// RenderText is Report followed by Text.
func RenderText(plan *core.Plan, opts AnalyzeOptions) (string, error) {
	res, err := Report(plan, opts)
	if err != nil {
		return "", err
	}
	return res.Text(opts), nil
}
