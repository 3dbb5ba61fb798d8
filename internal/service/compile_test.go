package service

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"

	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/petri"
	"trustseq/internal/search"
)

// A compiled problem is read, never written: concurrent misses under
// every option set, and the cross-check engines run beside them, share
// one *model.Compiled. Each option set is one miss, and every engine
// reads the table Compile built; run under -race this also pins that no
// engine writes the shared value.
func TestConcurrentAnalyzeReadsOneTable(t *testing.T) {
	t.Parallel()
	c := model.MustCompile(mustLoad(t, feasibleSpec))
	tab := c.ActionTable()
	svc := New(Options{})
	var wg sync.WaitGroup
	for _, opts := range []AnalyzeOptions{{}, {Simulate: true}, {CrossCheck: true}, {Simulate: true, CrossCheck: true}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, d, _, err := svc.analyzeTraced(context.Background(), problemDigest(c), c, nil, opts, nil, nil); err != nil || d != dispositionMiss {
				t.Errorf("analyze(%+v) = %s, %v; want a miss", opts, d, err)
			}
		}()
	}
	for _, mode := range []search.Mode{search.ModeAssets, search.ModeStrong} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := search.FeasibleObs(c, mode, 1, nil); err != nil || !v.Feasible {
				t.Errorf("FeasibleObs(%v) = %+v, %v", mode, v, err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := petri.Encode(c); err != nil {
			t.Errorf("petri.Encode = %v", err)
		}
	}()
	wg.Wait()
	if c.ActionTable() != tab {
		t.Fatal("an engine rebuilt the compiled problem's table")
	}
}

// A problem handed to Analyze is compiled first; one that does not
// compile is a 422 carrying Compile's error, caches nothing and leaves
// no run in flight.
func TestAnalyzeInvalidProblemIs422(t *testing.T) {
	t.Parallel()
	broken := func() *model.Problem {
		p := paperex.Example1()
		p.Exchanges[paperex.Example1ConsumerIdx].Gives.Amount += 7
		return p
	}
	_, want := model.Compile(broken())
	svc := New(Options{})
	for i := 0; i < 2; i++ {
		_, _, err := svc.Analyze(context.Background(), broken(), AnalyzeOptions{})
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity || se.Msg != want.Error() {
			t.Fatalf("Analyze #%d = %v; want a 422 with %q", i, err, want)
		}
	}
	if n := svc.CacheLen(); n != 0 {
		t.Fatalf("an invalid problem left %d cached results", n)
	}
}
