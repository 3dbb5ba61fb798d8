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

// A loaded problem is validated, so compiled, once: concurrent misses
// under every option set, and the cross-check engines run beside them,
// only read it. Each option set is one miss, and the table dsl.Load
// published is the one every engine reads afterwards; run under -race
// this also pins that no engine writes the shared problem.
func TestConcurrentAnalyzeReadsOneTable(t *testing.T) {
	t.Parallel()
	p := mustLoad(t, feasibleSpec)
	tab := p.ActionTable()
	svc := New(Options{})
	var wg sync.WaitGroup
	for _, opts := range []AnalyzeOptions{{}, {Simulate: true}, {CrossCheck: true}, {Simulate: true, CrossCheck: true}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, d, err := svc.Analyze(context.Background(), p, opts); err != nil || d != dispositionMiss {
				t.Errorf("Analyze(%+v) = %s, %v; want a miss", opts, d, err)
			}
		}()
	}
	for _, mode := range []search.Mode{search.ModeAssets, search.ModeStrong} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := search.FeasibleObs(p, mode, 1, nil); err != nil || !v.Feasible {
				t.Errorf("FeasibleObs(%v) = %+v, %v", mode, v, err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := petri.FromProblem(p); err != nil {
			t.Errorf("petri.FromProblem = %v", err)
		}
	}()
	wg.Wait()
	if p.ActionTable() != tab {
		t.Fatal("an engine rebuilt the loaded problem's table")
	}
}

// An unvalidated problem handed to Analyze is compiled in the compile
// stage; one that fails Validate is a 422 carrying Validate's error,
// caches nothing and leaves no run in flight.
func TestAnalyzeInvalidProblemIs422(t *testing.T) {
	t.Parallel()
	broken := func() *model.Problem {
		p := paperex.Example1()
		p.Exchanges[paperex.Example1ConsumerIdx].Gives.Amount += 7
		return p
	}
	want := broken().Validate()
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
