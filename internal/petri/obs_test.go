package petri

import (
	"testing"

	"trustseq/internal/obs"
	"trustseq/internal/paperex"
)

// TestCoverObsMatchesPlain pins the telemetry contract for the Petri
// engine: CompletableObs with telemetry returns the identical result to
// Completable (the level bookkeeping must not perturb FIFO order), and
// per-level events with frontier sizes land on the trace.
func TestCoverObsMatchesPlain(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		enc, err := FromProblem(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plain := enc.Completable(1 << 16)
		ring := obs.NewRingSink(1 << 12)
		tel := &obs.Telemetry{Tracer: obs.NewTracer(ring), Metrics: obs.NewRegistry()}
		traced := enc.CompletableObs(1<<16, tel, nil)
		if traced != plain {
			t.Errorf("%s: traced result %+v != plain %+v", name, traced, plain)
		}
		if got := tel.Metrics.Counter("petri.states").Value(); got != int64(plain.Explored) {
			t.Errorf("%s: petri.states = %d, want %d", name, got, plain.Explored)
		}

		levels := 0
		for _, e := range ring.Events() {
			if e.Name == "petri.level" {
				levels++
			}
		}
		if plain.Explored > 1 && levels == 0 {
			t.Errorf("%s: no petri.level events for %d explored states", name, plain.Explored)
		}
	}
}

// TestMarkingSetCollisions sanity-checks the collision tally: inserting
// distinct markings counts a collision only when the hash was already
// present in the arena.
func TestMarkingSetCollisions(t *testing.T) {
	t.Parallel()
	s := &markingArena{}
	s.reset(2)
	a := []int32{1, 0}
	b := []int32{0, 1}
	s.add(a)
	s.add(b)
	if _, fresh := s.add(a); fresh { // duplicate: no new insert, no collision
		t.Fatal("duplicate must not insert")
	}
	if s.count != 2 {
		t.Fatalf("count = %d", s.count)
	}
	if s.collisions < 0 || s.collisions > 1 {
		t.Errorf("collisions = %d, want 0 or 1", s.collisions)
	}
}
