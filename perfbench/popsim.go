package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/sim"
	"trustseq/internal/vlog"
)

// populationSim measures full simulations at population scale: one op
// is one sim.Run, with the verifiable settlement log on, of the plan for
// a 10^4-consumer gen.Population. Set-up is the synthesis of that plan.
func populationSim(cfg config) (*outcome, error) {
	setups := make([]float64, 0, setupReps)
	var plan *core.Plan
	for r := 0; r < setupReps; r++ {
		p := gen.Population(popPrincipals, 0, 10)
		plan = nil // so the forced GC frees the previous set-up's plan
		runtime.GC()
		start := time.Now()
		pl, err := core.Synthesize(p)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("synthesizing the population: %w", err)
		}
		plan = pl
	}
	if !plan.Feasible {
		return nil, errors.New("the population plan is infeasible")
	}
	if _, err := sim.Run(plan, popOptions(cfg.seed, -1)); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	l := popLoop(cfg.window, func(i int) (*sim.Result, error) {
		return sim.Run(plan, popOptions(cfg.seed, i))
	}, nil)
	out := &outcome{result: endToEnd(setups, l), info: windowInfo(setups, l)}
	if !cfg.trace {
		return out, nil
	}

	// The traced replay: the same op seeds, with sim.Run as the op's one
	// span. BuildPrincipalNodes and SettlementLog run inside sim.Run;
	// each is re-invoked on the same inputs right after the op, as a
	// probe outside it, to show its share of the run.
	recs := newRecorders(1)
	rec := recs[0]
	messages := 0
	rl := popLoop(cfg.window, func(i int) (*sim.Result, error) {
		var res *sim.Result
		rec.beginOp("op", i)
		err := rec.call("sim.run", func() (err error) {
			res, err = sim.Run(plan, popOptions(cfg.seed, i))
			return err
		})
		rec.endOp()
		return res, err
	}, func(i int, res *sim.Result) {
		messages += res.Messages
		rec.beginOp("probe", i)
		rec.call("sim.build_nodes", func() error {
			sim.BuildPrincipalNodes(plan, nil)
			return nil
		})
		rec.call("sim.settlement", func() error {
			sim.SettlementLog(res.Trace)
			return nil
		})
		rec.endOp()
	})
	a := aggregate(recs)
	vals := map[string]float64{
		"core.population_synthesize_s": median(setups),
		"sim.run_ms_per_op":            a.ms("sim.run"),
		"sim.build_nodes_ms_per_op":    a.ms("sim.build_nodes"),
		"sim.settlement_ms_per_op":     a.ms("sim.settlement"),
		"sim.messages_per_op":          float64(messages) / float64(a.ops),
		"sim.messages_per_s":           float64(messages) / a.self["sim.run"].Seconds(),
	}
	return finishTrace(cfg, "population-sim", recs, l, rl, vals, out)
}

func popOptions(seed int64, i int) sim.Options {
	return sim.Options{Seed: popSeed(seed, i), Deadline: popDeadline, VLog: true}
}

// popLoop runs ops one after another until the window has passed. Each
// op starts from a collected heap (runtime.GC between ops, outside the
// timed interval), as a trustsim user starts each run in a fresh
// process; its CPU and heap peak are taken over the op alone, and its
// output is checked after the clock stops. elapsed is the summed op
// time, so ops_per_s counts simulation work and not the collections and
// checks between ops. probe, when set, runs after each checked op.
func popLoop(window time.Duration, op func(i int) (*sim.Result, error), probe func(i int, res *sim.Result)) *loop {
	l := &loop{}
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		runtime.GC()
		t0 := time.Now()
		smp := startSampler(t0, 0)
		res, err := op(i)
		lat := time.Since(t0)
		p := smp.stop()[0]
		l.cpu += p.cpu
		l.peakHeap = max(l.peakHeap, p.peakHeap)
		l.lat = append(l.lat, lat)
		l.elapsed += lat
		if err == nil {
			err = checkPopRun(res, int64(i))
		}
		if err != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		if probe != nil {
			probe(i, res)
		}
	}
	l.perConn = []int{len(l.lat)}
	return l
}

// popProofs is how many trace entries checkPopRun proves.
const popProofs = 8

// checkPopRun checks a population run: it completed, and its trace
// replays to its balances under its settlement root.
// sim.ReplayBalancesVerified proves every trace entry against the root,
// and one proof costs O(trace) hashes, so over a 10^4-consumer trace
// (10^5 entries) it would take over half an hour. This check keeps its
// parts at linear cost: the root rebuilt from the trace must equal the
// run's (which binds every entry), the ledger replay must reach every
// balance of the run, and a sample of entries must prove membership
// under the root.
func checkPopRun(res *sim.Result, sample int64) error {
	if !res.Completed() {
		return errors.New("run did not complete")
	}
	root, err := vlog.ParseHash(res.SettlementRoot)
	if err != nil {
		return fmt.Errorf("settlement root: %w", err)
	}
	lg := sim.SettlementLog(res.Trace)
	if lg.Root() != root {
		return fmt.Errorf("trace rebuilds root %s, run published %s", lg.Root(), root)
	}
	bal, err := res.ReplayBalances()
	if err != nil {
		return fmt.Errorf("replaying the trace: %w", err)
	}
	for _, pa := range res.Problem.Parties {
		if !bal[pa.ID].Equal(res.Balances[pa.ID]) {
			return fmt.Errorf("replayed balance of %s differs from the run's", pa.ID)
		}
	}
	n := lg.Size()
	for k := 0; k < popProofs; k++ {
		i := uint64(seedFor(sample, int64(k))) % n
		path, err := lg.MembershipProof(i, n)
		if err != nil {
			return err
		}
		if err := vlog.VerifyMembership(root, i, n, vlog.LeafHash(sim.AuditRecord(res.Trace[i])), path); err != nil {
			return fmt.Errorf("trace entry %d: %w", i, err)
		}
	}
	return nil
}
