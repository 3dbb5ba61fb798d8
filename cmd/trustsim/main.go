// Command trustsim executes a specification's synthesized protocol on
// the simulated distributed network, optionally with defecting
// principals, and reports the outcome: completion, message counts, and
// every party's final balance and acceptability.
//
// Usage:
//
//	trustsim [flags] problem.exch
//	trustsim -principals N [-producers P]
//	trustsim -n N [-workers W] [-family random|chain|star]
//
//	-seed N        network randomness seed (default 1)
//	-jitter N      extra per-message latency in [0,N] ticks (default 3)
//	-defect LIST   comma-separated defectors, each "party" (silent) or
//	               "party:K" (defects after K of its own steps)
//	-deadline N    escrow deadline in ticks (default 1000)
//	-timeline      print the delivered-message timeline
//
// Population scale (see gen.Population):
//
//	-principals N  simulate a generated N-consumer retail market instead
//	               of a spec file; timing (synthesis and simulation in
//	               milliseconds, principals/sec) goes to stderr, the
//	               deterministic outcome to stdout
//	-producers P   size of the shared producer tier (default n/256)
//
// Checkpoint / restore (see the sim package's checkpoint format):
//
//	-checkpoint F  record in F the prefix of the run delivered before
//	               -checkpoint-at (default 0): a 150-byte record of the
//	               tick, the entry count and its settlement-log root
//	-restore F     re-run the plan and check that its prefix matches
//	               F's before reporting; plan and options must match
//	               the checkpointed run
//
// Fault injection (see the README's fault-injection section):
//
//	-faults SPEC   sample a fault plan from the seed; SPEC is "all",
//	               "none", or a comma list of dup, reorder, spike,
//	               partition, crash, drop
//	-crash LIST    explicit crash-restarts of trusted nodes, each
//	               "node@at+downtime" (composes with -faults)
//	-partition L   explicit link cuts, each "a~b@from..until"
//	-retries N     re-send every notification up to N extra times with
//	               exponential backoff and jitter
//
// With -n > 0 the command runs a cross-validation sweep instead of a
// simulation: N generated problems are driven through synthesis, both
// exhaustive searches and Petri-net coverability on a worker pool, and
// the aggregate agreement statistics are printed. With -faults the
// sweep adds a chaos stage: -chaos-runs fault-injected simulations per
// feasible problem, each audited against the safety contract; unsafe
// outcomes are violations and fail the command. SIGINT cancels the
// sweep gracefully: in-flight problems finish, partial statistics are
// summarized on stderr, and the report covers what completed.
//
// Observability (both modes):
//
//	-trace FILE    write a structured JSONL span/event trace
//	-metrics FILE  write a metrics snapshot (counters, gauges, histograms)
//	-metrics-addr  serve live metrics over HTTP (e.g. :8090/metrics; JSON,
//	               or Prometheus text under Accept: text/plain)
//	-progress      report sweep progress on stderr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"trustseq/internal/core"
	"trustseq/internal/dsl"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/sim"
	"trustseq/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "trustsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out, errw io.Writer) (err error) {
	fs := flag.NewFlagSet("trustsim", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "network randomness seed")
	jitter := fs.Int64("jitter", 3, "extra per-message latency bound")
	defect := fs.String("defect", "", "defectors: party[:steps],...")
	deadline := fs.Int64("deadline", 1000, "escrow deadline in ticks")
	dropRate := fs.Float64("drop", 0, "notification drop probability [0,1)")
	faults := fs.String("faults", "", "fault families to inject: all, none, or dup,reorder,spike,partition,crash,drop")
	crashSpec := fs.String("crash", "", "explicit crash-restarts: node@at+downtime,...")
	partSpec := fs.String("partition", "", "explicit link cuts: a~b@from..until,...")
	retries := fs.Int("retries", 0, "extra notification re-sends with exponential backoff")
	chaosRuns := fs.Int("chaos-runs", 8, "fault-injected simulations per feasible sweep problem (with -faults)")
	timeline := fs.Bool("timeline", false, "print the delivered-message timeline")
	traceFile := fs.String("trace", "", "write a JSONL span/event trace to FILE")
	metricsFile := fs.String("metrics", "", "write a JSON metrics snapshot to FILE")
	metricsAddr := fs.String("metrics-addr", "", "serve live metrics over HTTP on ADDR (e.g. :8090)")
	progress := fs.Bool("progress", false, "report sweep progress on stderr")
	principals := fs.Int("principals", 0, "simulate a generated N-consumer population instead of a spec file")
	producers := fs.Int("producers", 0, "population producer-tier size (0 = n/256)")
	ckptPath := fs.String("checkpoint", "", "record in FILE the verified prefix of the run before -checkpoint-at")
	ckptAt := fs.Int64("checkpoint-at", 0, "virtual tick before which -checkpoint records the run's prefix")
	restorePath := fs.String("restore", "", "re-run the plan and verify its prefix against a checkpoint FILE")
	sweepN := fs.Int("n", 0, "run a cross-validation sweep over N generated problems (0 = simulate a spec file)")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	family := fs.String("family", "random", "sweep problem family: random, chain or star")
	searchWorkers := fs.Int("search-workers", 0, "per-problem parallel search workers (0/1 = serial search)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tel, flush, err := setupTelemetry(*traceFile, *metricsFile, *metricsAddr, errw)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()

	menu, err := sim.ParseFaultMenu(*faults)
	if err != nil {
		return err
	}

	if *sweepN > 0 {
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: trustsim -n N [-workers W] [-family F] (no spec file in sweep mode)")
		}
		if *crashSpec != "" || *partSpec != "" {
			return fmt.Errorf("-crash and -partition name specific parties; use -faults to sample plans in sweep mode")
		}
		if *principals > 0 || *ckptPath != "" || *restorePath != "" {
			return fmt.Errorf("-principals, -checkpoint and -restore apply to single simulations, not sweeps")
		}
		fam, err := sweep.ParseFamily(*family)
		if err != nil {
			return err
		}
		cfg := sweep.Config{
			N:             *sweepN,
			Workers:       *workers,
			Seed:          *seed,
			Family:        fam,
			SearchWorkers: *searchWorkers,
			Obs:           tel,
		}
		if menu.Any() {
			cfg.ChaosRuns = *chaosRuns
			cfg.ChaosFaults = menu
		}
		if *progress {
			cfg.Progress = func(done, total int) {
				fmt.Fprintf(errw, "\rsweep: %d/%d problems", done, total)
				if done == total {
					fmt.Fprintln(errw)
				}
			}
		}
		rep := sweep.RunContext(ctx, cfg)
		if rep.Canceled {
			// One line of partial accounting on interrupt, then the usual
			// report over what completed.
			fmt.Fprintf(errw, "\ntrustsim: interrupted after %d/%d problems (%d violations, %.1fs)\n",
				rep.Completed, cfg.N, rep.Stats.Violations(), rep.Elapsed.Seconds())
		}
		fmt.Fprint(out, rep.Summary())
		if v := rep.Stats.Violations(); v != 0 {
			return fmt.Errorf("sweep found %d cross-validation violations", v)
		}
		if rep.Canceled {
			return fmt.Errorf("sweep interrupted after %d/%d problems", rep.Completed, cfg.N)
		}
		return nil
	}
	if *ckptPath != "" && *restorePath != "" {
		return fmt.Errorf("-checkpoint and -restore are mutually exclusive")
	}
	var builder *model.Problem
	switch {
	case *principals > 0:
		if fs.NArg() != 0 {
			return fmt.Errorf("-principals generates its own problem; drop the spec file")
		}
		builder = gen.Population(*principals, *producers, 10)
	case fs.NArg() == 1:
		src, rerr := os.ReadFile(fs.Arg(0))
		if rerr != nil {
			return rerr
		}
		builder, err = dsl.Load(string(src))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: trustsim [flags] problem.exch (or -principals N)")
	}
	synthStart := time.Now()
	problem, err := model.Compile(builder)
	if err != nil {
		return err
	}
	plan, err := core.SynthesizeObs(problem, tel)
	if err != nil {
		return err
	}
	synthDur := time.Since(synthStart)
	if !plan.Feasible {
		return fmt.Errorf("problem %s is infeasible; nothing to simulate\n%s",
			problem.Name, plan.Reduction.Impasse())
	}

	defectors, err := parseDefectors(*defect)
	if err != nil {
		return err
	}
	fp, err := assembleFaultPlan(menu, *crashSpec, *partSpec, problem, *seed, sim.Time(*deadline))
	if err != nil {
		return err
	}
	opts := sim.Options{
		Seed:           *seed,
		Jitter:         sim.Time(*jitter),
		Deadline:       sim.Time(*deadline),
		Defectors:      defectors,
		NotifyDropRate: *dropRate,
		Faults:         fp,
		NotifyRetries:  *retries,
		Obs:            tel,
	}
	if *ckptPath != "" {
		opts.Checkpoint = &sim.CheckpointSpec{Path: *ckptPath, At: sim.Time(*ckptAt)}
	}
	simStart := time.Now()
	var res *sim.Result
	if *restorePath != "" {
		res, err = sim.RestoreRun(plan, opts, *restorePath)
	} else {
		res, err = sim.Run(plan, opts)
	}
	if err != nil {
		return err
	}
	if *principals > 0 {
		// Timing goes to stderr so stdout stays a deterministic record
		// that checkpoint-restore diffs can compare byte-for-byte.
		simDur := time.Since(simStart)
		fmt.Fprintf(errw, "trustsim: %d parties: synthesis %.1fms, simulation %.1fms (%.0f principals/sec)\n",
			len(problem.Parties), synthDur.Seconds()*1e3, simDur.Seconds()*1e3,
			float64(len(problem.Parties))/simDur.Seconds())
	}
	if *timeline {
		fmt.Fprintln(out, "\ndelivered messages:")
		fmt.Fprint(out, sim.RenderTrace(res.Trace))
	}

	fmt.Fprintf(out, "problem %s (seed %d, %d defectors)\n", problem.Name, *seed, len(defectors))
	fmt.Fprint(out, res.Summary())
	if fp.Enabled() || *retries > 0 {
		st := res.FaultStats
		fmt.Fprintf(out, "faults: dup=%d reorder=%d spike=%d partition-drop=%d crash-drop=%d deferred=%d retries=%d crashes=%d restarts=%d\n",
			st.DupNotifies, st.Reorders, st.Spikes, st.PartitionDrops, st.CrashDrops,
			st.Deferred, st.RetriesSent, st.Crashes, st.Restarts)
	}
	if *principals > 0 {
		// Per-party acceptability is quadratic in the population; report
		// the aggregate trusted-neutrality audit instead.
		neutral, trusted := 0, 0
		for _, pa := range problem.Parties {
			if pa.IsTrusted() {
				trusted++
				if res.TrustedNeutral(pa.ID) {
					neutral++
				}
			}
		}
		fmt.Fprintf(out, "trusted neutral: %d/%d\n", neutral, trusted)
		return nil
	}
	for _, pa := range problem.Parties {
		if pa.IsTrusted() {
			fmt.Fprintf(out, "trusted %-8s neutral=%v\n", pa.ID, res.TrustedNeutral(pa.ID))
			continue
		}
		_, defected := defectors[pa.ID]
		fmt.Fprintf(out, "party   %-8s acceptable=%-5v assets-safe=%-5v defector=%v\n",
			pa.ID, res.AcceptableTo(pa.ID), res.AssetsSafeFor(pa.ID), defected)
	}
	return nil
}

// setupTelemetry assembles the run's obs.Telemetry from the trace /
// metrics flags. The returned flush closes the trace file and writes
// the metrics snapshot; it must run after the work, even on error
// paths, so a partial (interrupted) run still leaves its artifacts.
func setupTelemetry(traceFile, metricsFile, metricsAddr string, errw io.Writer) (*obs.Telemetry, func() error, error) {
	noop := func() error { return nil }
	if traceFile == "" && metricsFile == "" && metricsAddr == "" {
		return nil, noop, nil
	}
	tel := &obs.Telemetry{Metrics: obs.NewRegistry()}

	var traceF *os.File
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, noop, fmt.Errorf("creating trace file: %w", err)
		}
		traceF = f
		tel.Tracer = obs.NewTracer(obs.NewJSONLSink(f))
	}

	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			if traceF != nil {
				traceF.Close()
			}
			return nil, noop, fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.MetricsHandler(tel.Metrics, nil))
		srv := &http.Server{Handler: mux}
		go func() {
			if serr := srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
				fmt.Fprintln(errw, "trustsim: metrics server:", serr)
			}
		}()
		fmt.Fprintf(errw, "trustsim: serving metrics on http://%s/metrics\n", ln.Addr())
	}

	flush := func() error {
		var err error
		if traceF != nil {
			if cerr := traceF.Close(); cerr != nil {
				err = cerr
			}
		}
		if metricsFile != "" {
			f, ferr := os.Create(metricsFile)
			if ferr != nil {
				return fmt.Errorf("creating metrics file: %w", ferr)
			}
			if werr := tel.Metrics.Snapshot().WriteJSON(f); werr != nil && err == nil {
				err = werr
			}
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}
	return tel, flush, nil
}

// assembleFaultPlan builds the single-simulation fault plan: a plan
// sampled from the seed for the enabled families (if any), with the
// explicitly specified crashes and partitions layered on top. Returns
// nil when nothing was requested.
func assembleFaultPlan(menu sim.FaultMenu, crashSpec, partSpec string, p *model.Compiled, seed int64, deadline sim.Time) (*sim.FaultPlan, error) {
	var fp *sim.FaultPlan
	if menu.Any() {
		rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
		fp = sim.SampleFaultPlan(rng, p, menu, deadline)
	}
	crashes, err := parseCrashes(crashSpec)
	if err != nil {
		return nil, err
	}
	parts, err := parsePartitions(partSpec)
	if err != nil {
		return nil, err
	}
	if len(crashes) > 0 || len(parts) > 0 {
		if fp == nil {
			fp = &sim.FaultPlan{}
		}
		fp.Crashes = append(fp.Crashes, crashes...)
		fp.Partitions = append(fp.Partitions, parts...)
	}
	return fp, nil
}

// parseCrashes parses a -crash value: "node@at+downtime,...".
func parseCrashes(spec string) ([]sim.CrashEvent, error) {
	var out []sim.CrashEvent
	for _, part := range splitSpec(spec) {
		name, window, ok := strings.Cut(part, "@")
		atStr, downStr, ok2 := strings.Cut(window, "+")
		if !ok || !ok2 {
			return nil, fmt.Errorf("bad crash spec %q (want node@at+downtime)", part)
		}
		at, err1 := strconv.ParseInt(atStr, 10, 64)
		down, err2 := strconv.ParseInt(downStr, 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad crash spec %q (want node@at+downtime)", part)
		}
		out = append(out, sim.CrashEvent{
			Node: model.PartyID(name), At: sim.Time(at), Downtime: sim.Time(down),
		})
	}
	return out, nil
}

// parsePartitions parses a -partition value: "a~b@from..until,...".
func parsePartitions(spec string) ([]sim.Partition, error) {
	var out []sim.Partition
	for _, part := range splitSpec(spec) {
		link, window, ok := strings.Cut(part, "@")
		a, b, ok2 := strings.Cut(link, "~")
		fromStr, untilStr, ok3 := strings.Cut(window, "..")
		if !ok || !ok2 || !ok3 {
			return nil, fmt.Errorf("bad partition spec %q (want a~b@from..until)", part)
		}
		from, err1 := strconv.ParseInt(fromStr, 10, 64)
		until, err2 := strconv.ParseInt(untilStr, 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad partition spec %q (want a~b@from..until)", part)
		}
		out = append(out, sim.Partition{
			A: model.PartyID(a), B: model.PartyID(b),
			From: sim.Time(from), Until: sim.Time(until),
		})
	}
	return out, nil
}

func splitSpec(spec string) []string {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseDefectors(spec string) (map[model.PartyID]int, error) {
	out := make(map[model.PartyID]int)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, stepsStr, found := strings.Cut(part, ":")
		steps := 0
		if found {
			n, err := strconv.Atoi(stepsStr)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad defector spec %q", part)
			}
			steps = n
		}
		out[model.PartyID(name)] = steps
	}
	return out, nil
}
