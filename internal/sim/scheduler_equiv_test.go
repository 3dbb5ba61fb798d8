package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
)

// The timing wheel must be observationally identical to the binary-heap
// oracle: events are totally ordered by (At, seq), so any correct queue
// yields the same schedule. This property test runs every generator
// family in the chaos corpus plus a population-scale plan under seeded
// fault plans with both queues and requires byte-identical traces,
// identical realized fault counts, and identical chaos audits.
func TestWheelMatchesHeapAcrossCorpus(t *testing.T) {
	t.Parallel()
	plans := chaosCorpus(t)
	popPlan, err := core.Synthesize(gen.Population(12, 2, 10))
	if err != nil {
		t.Fatalf("synthesize population: %v", err)
	}
	plans = append(plans, popPlan)
	for pi, pl := range plans {
		for s := 0; s < 3; s++ {
			seed := int64(pi)*104729 + int64(s)
			rng := rand.New(rand.NewSource(seed))
			opts := ChaosOptions(rng, pl.Problem, AllFaults(), seed, 0)

			opts.queue = newQueue
			wheel, err := Run(pl, opts)
			if err != nil {
				t.Fatalf("%s seed %d (wheel): %v", pl.Problem.Name, seed, err)
			}
			opts.queue = newHeapQueue
			heap, err := Run(pl, opts)
			if err != nil {
				t.Fatalf("%s seed %d (heap): %v", pl.Problem.Name, seed, err)
			}

			if a, b := RenderTrace(wheel.Trace), RenderTrace(heap.Trace); a != b {
				t.Fatalf("%s seed %d: traces diverge between schedulers:\n--- wheel ---\n%s\n--- heap ---\n%s",
					pl.Problem.Name, seed, a, b)
			}
			if wheel.FaultStats != heap.FaultStats {
				t.Fatalf("%s seed %d: fault stats diverge: %+v vs %+v",
					pl.Problem.Name, seed, wheel.FaultStats, heap.FaultStats)
			}
			if a, b := ChaosViolations(wheel, opts.Defectors), ChaosViolations(heap, opts.Defectors); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seed %d: chaos audits diverge: %v vs %v",
					pl.Problem.Name, seed, a, b)
			}
			if a, b := wheel.Summary(), heap.Summary(); a != b {
				t.Fatalf("%s seed %d: summaries diverge:\n%s\nvs\n%s",
					pl.Problem.Name, seed, a, b)
			}
		}
	}
}
