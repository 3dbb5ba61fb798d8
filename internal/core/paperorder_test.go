package core

import (
	"strings"
	"testing"

	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/sequencing"
)

// Driving the reduction in the paper's own Section 4.2.2 edge order
// reproduces the Section 5 execution sequence EXACTLY, step for step:
//
//  1. Producer sends document to Trusted2.
//  2. Trusted2 notifies Broker.
//  3. Consumer sends money to Trusted1.
//  4. Trusted1 notifies Broker.
//  5. Broker sends money to Trusted2.   (red edge delayed)
//  6. Trusted2 sends document to Broker.
//  7. Trusted2 sends money to Producer.
//  8. Broker sends document to Trusted1.
//  9. Trusted1 sends document to Consumer.
//  10. Trusted1 sends money to Broker.
func TestPaperOrderReproducesSection5Exactly(t *testing.T) {
	t.Parallel()
	p := paperex.Example1()

	// The paper's removal order, keyed by (commitment exchange index,
	// conjunction agent).
	rank := map[[2]string]int{
		{"3", "t2"}: 1, // Trusted2—Producer at ⋀T2
		{"2", "t2"}: 2, // Broker—Trusted2 at ⋀T2
		{"0", "t1"}: 3, // Consumer—Trusted1 at ⋀T1
		{"1", "t1"}: 4, // Trusted1—Broker at ⋀T1
		{"1", "b"}:  5, // the red edge at ⋀B
		{"2", "b"}:  6, // Broker—Trusted2 at ⋀B
	}
	plan, err := SynthesizeWith(model.MustCompile(p), func(g *sequencing.Graph) *sequencing.Reduction {
		return sequencing.ReducePreferred(g, func(e sequencing.Edge) int {
			key := [2]string{itoa(e.ID.C), string(g.Conjunctions[e.ID.J].Agent)}
			if r, ok := rank[key]; ok {
				return r
			}
			return 100
		})
	})
	if err != nil {
		t.Fatalf("SynthesizeWith = %v", err)
	}
	if !plan.Feasible {
		t.Fatalf("infeasible")
	}
	want := []string{
		`p sends doc "d" to t2`,
		`t2 notifies b`,
		`c sends $100 to t1`,
		`t1 notifies b`,
		`b sends $80 to t2`,
		`t2 sends doc "d" to b`,
		`t2 sends $80 to p`,
		`b sends doc "d" to t1`,
		`t1 sends doc "d" to c`,
		`t1 sends $100 to b`,
	}
	steps := plan.ActionSteps()
	if len(steps) != len(want) {
		t.Fatalf("steps = %d, want %d:\n%s", len(steps), len(want), plan.ExecutionSequence())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(plan.ExecutionSequence()), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "—") {
			continue
		}
		// strip the " N. " prefix
		if i := strings.Index(line, ". "); i >= 0 {
			got = append(got, line[i+2:])
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %q, want %q\nfull sequence:\n%s", i+1, got[i], want[i], plan.ExecutionSequence())
		}
	}
	if err := plan.Verify(); err != nil {
		t.Fatalf("Verify = %v", err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
