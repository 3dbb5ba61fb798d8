package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/petri"
	"trustseq/internal/search"
	"trustseq/internal/sim"
)

// Family selects the generator family driven by the sweep.
type Family int

// The supported problem families.
const (
	FamilyRandom Family = iota
	FamilyChain
	FamilyStar
)

// String names the family.
func (f Family) String() string {
	switch f {
	case FamilyRandom:
		return "random"
	case FamilyChain:
		return "chain"
	case FamilyStar:
		return "star"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// ParseFamily parses a family name as accepted on the command line.
func ParseFamily(s string) (Family, error) {
	switch s {
	case "random":
		return FamilyRandom, nil
	case "chain":
		return FamilyChain, nil
	case "star":
		return FamilyStar, nil
	default:
		return 0, fmt.Errorf("sweep: unknown family %q (want random, chain or star)", s)
	}
}

// Config parameterizes a sweep. The zero value is usable: 50 random
// problems, GOMAXPROCS workers, the default generator shape.
type Config struct {
	N       int   // number of problems; default 50
	Workers int   // worker pool size; ≤0 means GOMAXPROCS
	Seed    int64 // base seed; problem i uses a seed derived from Seed and i

	Family Family
	Gen    gen.Options // shape of FamilyRandom problems

	MaxDepth  int // FamilyChain: depths cycle 1..MaxDepth (default 3)
	MaxPieces int // FamilyStar: piece counts cycle 1..MaxPieces (default 2)

	// MaxSearchExchanges caps the exhaustive searches: problems with more
	// exchanges record SearchSkipped instead of burning exponential time.
	// Default 10.
	MaxSearchExchanges int
	// PetriBudget bounds the coverability exploration per problem.
	// Default 1<<17 states.
	PetriBudget int
	// SearchWorkers > 1 fans each problem's search out to that many
	// workers (search.FeasibleObs) on top of the cross-problem pool.
	// Default: serial per-problem search (the sweep already saturates
	// the machine across problems).
	SearchWorkers int

	// ChaosRuns > 0 adds a chaos stage to every graph-feasible problem:
	// that many fault-injected simulations, each with a fault plan,
	// deadline, retry budget and (one run in ~three) a silent defector
	// sampled from a seed derived from the problem's own, each audited
	// with sim.ChaosViolations. Unsafe outcomes count as sweep
	// violations. The stage is as deterministic as the rest of the
	// sweep: same Config, same Results, any worker count.
	ChaosRuns int
	// ChaosFaults selects the fault families the chaos stage samples
	// from. The zero value with ChaosRuns > 0 means all families.
	ChaosFaults sim.FaultMenu

	// Obs receives sweep telemetry: a span per sweep, a sweep.problem
	// event per instance, per-family latency histograms and the
	// sweep.disagreements counter. Telemetry is additive — Results and
	// Stats are byte-identical with or without it, for any worker count.
	Obs *obs.Telemetry
	// Progress, when non-nil, is called after each problem completes with
	// the number done so far and the total. It may be called concurrently
	// from worker goroutines and must be safe for that.
	Progress func(done, total int)
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 50
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.MaxPieces <= 0 {
		c.MaxPieces = 2
	}
	if c.MaxSearchExchanges <= 0 {
		c.MaxSearchExchanges = 10
	}
	if c.PetriBudget <= 0 {
		c.PetriBudget = 1 << 17
	}
	if c.Gen.Consumers < 1 {
		c.Gen.Consumers = 1
	}
	if c.Gen.Brokers < 1 {
		c.Gen.Brokers = 2
	}
	if c.Gen.Producers < 1 {
		c.Gen.Producers = 2
	}
	if c.Gen.MaxPrice < 2 {
		c.Gen.MaxPrice = 30
	}
	return c
}

// Result is the cross-validated verdict set of one generated problem.
type Result struct {
	Index     int
	Seed      int64
	Name      string
	Exchanges int

	GraphFeasible bool

	Verdicts
	// PetriComparable marks instances where coverability and asset search
	// decide the same question: no persona trust (early withdrawals are
	// not encoded in the net) and a conclusive, uncapped exploration.
	PetriComparable bool

	// ChaosRuns is the number of fault-injected simulations executed for
	// this problem; ChaosUnsafe counts those that broke the safety
	// contract, and ChaosViolation describes the first break.
	ChaosRuns      int
	ChaosUnsafe    int
	ChaosViolation string

	Err string
}

// Stats aggregates a sweep.
type Stats struct {
	Problems  int
	Errors    int
	Skipped   int // searches skipped for size
	Feasible  int // graph-feasible
	Assets    int // assets-search feasible
	Strong    int // strong-search feasible
	Covered   int // petri completable
	Capped    int // petri budget exhausted
	Unsound   int // graph-feasible but NOT assets-feasible (must stay 0)
	Disorder  int // strong-feasible but NOT assets-feasible (must stay 0)
	PetriSkew int // comparable instances where petri ≠ assets (must stay 0)
	Gap       int // strong-feasible but graph impasse (the paper's incompleteness)

	ChaosRuns   int // fault-injected simulations executed
	ChaosUnsafe int // chaos runs that broke the safety contract (must stay 0)
}

// Report is a completed sweep.
type Report struct {
	Config  Config
	Results []Result
	Stats   Stats

	// Durations holds per-problem wall-clock times, index-addressed in
	// parallel with Results. They feed the latency histograms and are
	// the one machine-dependent part of a report: verdict determinism
	// (identical Results and Stats for any worker count) never covers
	// them.
	Durations []time.Duration
	// Done marks which indices actually ran; all true unless the sweep
	// was canceled.
	Done []bool
	// Completed counts true entries in Done.
	Completed int
	// Canceled reports the sweep stopped early (context canceled); Stats
	// then aggregates only the completed problems.
	Canceled bool
	// Elapsed is the sweep's total wall-clock time.
	Elapsed time.Duration
}

// workerScratch is the reusable working state of one sweep worker: a
// single RNG reseeded per problem (the reseeded stream is identical to
// a fresh rand.New(rand.NewSource(seed)), so verdicts don't change) and
// the Petri scratch buffers. One scratch per worker goroutine keeps the
// sweep's allocation volume O(workers) instead of O(problems).
type workerScratch struct {
	rng   *rand.Rand
	cover *petri.CoverScratch
}

func newWorkerScratch() *workerScratch {
	return &workerScratch{
		rng:   rand.New(rand.NewSource(0)),
		cover: petri.NewCoverScratch(),
	}
}

// problemFor deterministically generates problem i of the sweep.
func problemFor(cfg Config, i int, ws *workerScratch) (*model.Problem, int64) {
	// Decorrelate per-problem streams with a fixed odd multiplier; the
	// exact constant is irrelevant, distinctness per index is not.
	seed := cfg.Seed + int64(i)*0x9E3779B1 + 1
	switch cfg.Family {
	case FamilyChain:
		depth := 1 + i%cfg.MaxDepth
		return gen.Chain(depth, model.Money(depth+10)), seed
	case FamilyStar:
		pieces := 1 + i%cfg.MaxPieces
		prices := make([]model.Money, pieces)
		ws.rng.Seed(seed)
		for j := range prices {
			prices[j] = model.Money(5 + ws.rng.Intn(20))
		}
		return gen.Star(prices), seed
	default:
		ws.rng.Seed(seed)
		return gen.Random(ws.rng, cfg.Gen), seed
	}
}

// Run executes the sweep and returns the index-ordered results with
// aggregate stats. The report is independent of Config.Workers.
func Run(cfg Config) *Report {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the sweep under a context. Cancellation stops
// workers at the next problem boundary (a problem in flight finishes);
// the report then carries the completed prefix set with Canceled true
// and Stats over only the completed problems.
func RunContext(ctx context.Context, cfg Config) *Report {
	cfg = cfg.withDefaults()
	return runRange(ctx, cfg, 0, cfg.N)
}

// RunContextRange executes only the index range [lo, hi) of the sweep
// cfg describes: problem i still derives its seed from cfg.Seed and
// its global index i, so the results are byte-identical to the same
// indices of a full run — the property a distributed sweep's merge
// step (Merge) relies on. The report's Results carry global indices;
// its Stats aggregate the range alone. Out-of-range bounds are clamped
// to [0, cfg.N].
func RunContextRange(ctx context.Context, cfg Config, lo, hi int) *Report {
	cfg = cfg.withDefaults()
	if lo < 0 {
		lo = 0
	}
	if hi > cfg.N {
		hi = cfg.N
	}
	if lo > hi {
		lo = hi
	}
	return runRange(ctx, cfg, lo, hi)
}

// runRange is the shared sweep engine over global indices [lo, hi).
// cfg must already carry defaults.
func runRange(ctx context.Context, cfg Config, lo, hi int) *Report {
	tel := cfg.Obs
	start := time.Now()
	n := hi - lo
	var span obs.Span
	if tel.Enabled() {
		// Pre-create the counter the sweep's soundness contract is about,
		// so a clean run still snapshots an explicit zero.
		tel.Reg().Counter("sweep.disagreements")
		span = tel.Trace().StartSpan("sweep.run",
			obs.Int("n", cfg.N),
			obs.Int("lo", lo),
			obs.Int("hi", hi),
			obs.Int("workers", cfg.Workers),
			obs.Str("family", cfg.Family.String()),
			obs.Int64("seed", cfg.Seed))
	}

	results := make([]Result, n)
	durations := make([]time.Duration, n)
	done := make([]bool, n)
	workers := cfg.Workers
	if workers > n {
		workers = n
	}
	jobs := make(chan int, n)
	for i := lo; i < hi; i++ {
		jobs <- i
	}
	close(jobs)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := newWorkerScratch()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				results[i-lo] = runOne(cfg, i, ws)
				durations[i-lo] = time.Since(t0)
				done[i-lo] = true
				c := int(completed.Add(1))
				observeProblem(tel, &results[i-lo], durations[i-lo])
				if cfg.Progress != nil {
					cfg.Progress(c, n)
				}
			}
		}()
	}
	wg.Wait()

	rep := &Report{
		Config:    cfg,
		Results:   results,
		Durations: durations,
		Done:      done,
		Completed: int(completed.Load()),
		Canceled:  ctx.Err() != nil,
		Elapsed:   time.Since(start),
	}
	if rep.Canceled {
		rep.Stats = aggregatePartial(results, done)
	} else {
		rep.Stats = aggregate(results)
	}
	if tel.Enabled() {
		reg := tel.Reg()
		reg.Counter("sweep.disagreements").Add(int64(rep.Stats.Violations()))
		if secs := rep.Elapsed.Seconds(); secs > 0 {
			reg.Gauge("sweep.problems_per_sec").Set(int64(float64(rep.Completed) / secs))
		}
		span.End(
			obs.Int("completed", rep.Completed),
			obs.Bool("canceled", rep.Canceled),
			obs.Int("violations", rep.Stats.Violations()),
			obs.Int("gap", rep.Stats.Gap),
			obs.Float("seconds", rep.Elapsed.Seconds()))
	}
	return rep
}

// observeProblem records one finished problem on the telemetry: the
// per-family latency histogram and a sweep.problem trace event carrying
// the full verdict set.
func observeProblem(tel *obs.Telemetry, r *Result, d time.Duration) {
	if !tel.Enabled() {
		return
	}
	fam := familyOf(r.Name)
	// Counted here, not at sweep end, so the live -metrics-addr endpoint
	// shows progress mid-run.
	tel.Reg().Counter("sweep.problems").Inc()
	tel.Reg().Histogram("sweep.latency."+fam, obs.DurationBuckets()).Observe(d.Seconds())
	// The attr is "problem", not "name": JSONL attrs flatten into the
	// top-level object, where "name" is the event name.
	tel.Trace().Event("sweep.problem",
		obs.Int("index", r.Index),
		obs.Str("problem", r.Name),
		obs.Int("exchanges", r.Exchanges),
		obs.Bool("graph", r.GraphFeasible),
		obs.Bool("assets", r.AssetsFeasible),
		obs.Bool("strong", r.StrongFeasible),
		obs.Bool("petri", r.PetriFound),
		obs.Bool("skipped", r.SearchSkipped),
		obs.Int("chaos_runs", r.ChaosRuns),
		obs.Int("chaos_unsafe", r.ChaosUnsafe),
		obs.Str("err", r.Err),
		obs.Float("seconds", d.Seconds()))
}

// familyOf recovers the generator family from a problem name like
// "random-3" or "chain-2"; metric names must not depend on Config so
// mixed reports bucket consistently.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '-'); i > 0 {
		return name[:i]
	}
	return name
}

// runOne cross-validates a single generated problem.
func runOne(cfg Config, i int, ws *workerScratch) Result {
	p, seed := problemFor(cfg, i, ws)
	res := Result{Index: i, Seed: seed, Name: p.Name, Exchanges: len(p.Exchanges)}
	tel := cfg.Obs

	plan, err := core.SynthesizeObs(p, tel)
	if err != nil {
		res.Err = fmt.Sprintf("synthesize: %v", err)
		return res
	}
	res.GraphFeasible = plan.Feasible
	if plan.Feasible && cfg.ChaosRuns > 0 {
		runChaos(cfg, plan, seed, ws, &res)
	}

	res.Verdicts, err = CrossCheck(p, cfg.MaxSearchExchanges, cfg.PetriBudget, cfg.SearchWorkers, tel, ws.cover)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.PetriComparable = !res.SearchSkipped && !res.PetriCapped &&
		len(p.DirectTrust) == 0 && len(p.Indemnities) == 0
	return res
}

// Verdicts is the cross-check of one problem: the exhaustive search
// under both safety semantics and Petri coverability (§7.4).
type Verdicts struct {
	SearchSkipped  bool // exhaustive searches skipped (too many exchanges)
	AssetsFeasible bool
	StrongFeasible bool

	PetriFound  bool
	PetriCapped bool
}

// CrossCheck decides p with the assets search, the strong search and
// Petri coverability — the one cross-check behind the sweep, trustd's
// crosscheck option and E10. A problem with more than maxExchanges
// exchanges runs none of them and reports SearchSkipped instead of
// burning exponential time. petriBudget bounds the coverability
// exploration, searchWorkers > 1 fans each search out
// (search.FeasibleObs), and scratch, when non-nil, is reused by the
// coverability check. On an engine error the verdicts decided so far
// come back with it.
func CrossCheck(p *model.Problem, maxExchanges, petriBudget, searchWorkers int, tel *obs.Telemetry, scratch *petri.CoverScratch) (Verdicts, error) {
	var v Verdicts
	if len(p.Exchanges) > maxExchanges {
		v.SearchSkipped = true
		return v, nil
	}
	assets, err := search.FeasibleObs(p, search.ModeAssets, searchWorkers, tel)
	if err != nil {
		return v, fmt.Errorf("assets search: %w", err)
	}
	v.AssetsFeasible = assets.Feasible
	strong, err := search.FeasibleObs(p, search.ModeStrong, searchWorkers, tel)
	if err != nil {
		return v, fmt.Errorf("strong search: %w", err)
	}
	v.StrongFeasible = strong.Feasible
	enc, err := petri.FromProblem(p)
	if err != nil {
		return v, fmt.Errorf("petri encoding: %w", err)
	}
	cov := enc.CompletableObs(petriBudget, tel, scratch)
	v.PetriFound, v.PetriCapped = cov.Found, cov.Capped
	return v, nil
}

// chaosSeedSalt decorrelates the chaos stage's RNG stream from the
// generator stream that shares the worker's RNG.
const chaosSeedSalt = 0x5DEECE66D

// runChaos executes the fault-injection stage for one feasible problem:
// ChaosRuns simulations whose fault plans, deadlines, retry budgets and
// occasional silent defector all derive from the problem seed, each
// audited against the chaos safety contract.
func runChaos(cfg Config, plan *core.Plan, seed int64, ws *workerScratch, res *Result) {
	menu := cfg.ChaosFaults
	if !menu.Any() {
		menu = sim.AllFaults()
	}
	p := plan.Problem
	var principals []model.PartyID
	for _, pa := range p.Parties {
		if !pa.IsTrusted() {
			principals = append(principals, pa.ID)
		}
	}
	ws.rng.Seed(seed ^ chaosSeedSalt)
	res.ChaosRuns = cfg.ChaosRuns
	for k := 0; k < cfg.ChaosRuns; k++ {
		opts := sim.ChaosOptions(ws.rng, p, menu, seed+int64(k)*0x85EBCA6B+3, 0)
		opts.Obs = cfg.Obs
		if len(principals) > 0 && ws.rng.Intn(3) == 0 {
			opts.Defectors = map[model.PartyID]int{
				principals[ws.rng.Intn(len(principals))]: ws.rng.Intn(2),
			}
		}
		out, err := sim.Run(plan, opts)
		if err != nil {
			res.ChaosUnsafe++
			if res.ChaosViolation == "" {
				res.ChaosViolation = fmt.Sprintf("chaos run %d: %v", k, err)
			}
			continue
		}
		if v := sim.ChaosViolations(out, opts.Defectors); len(v) > 0 {
			res.ChaosUnsafe++
			if res.ChaosViolation == "" {
				res.ChaosViolation = fmt.Sprintf("chaos run %d: %s", k, v[0])
			}
		}
	}
}

// aggregatePartial aggregates only the problems that completed before
// cancellation.
func aggregatePartial(results []Result, done []bool) Stats {
	kept := make([]Result, 0, len(results))
	for i, r := range results {
		if done[i] {
			kept = append(kept, r)
		}
	}
	return aggregate(kept)
}

func aggregate(results []Result) Stats {
	var st Stats
	st.Problems = len(results)
	for _, r := range results {
		if r.Err != "" {
			st.Errors++
			continue
		}
		st.ChaosRuns += r.ChaosRuns
		st.ChaosUnsafe += r.ChaosUnsafe
		if r.GraphFeasible {
			st.Feasible++
		}
		if r.SearchSkipped {
			st.Skipped++
			continue
		}
		if r.AssetsFeasible {
			st.Assets++
		}
		if r.StrongFeasible {
			st.Strong++
		}
		if r.PetriFound {
			st.Covered++
		}
		if r.PetriCapped {
			st.Capped++
		}
		if r.GraphFeasible && !r.AssetsFeasible {
			st.Unsound++
		}
		if r.StrongFeasible && !r.AssetsFeasible {
			st.Disorder++
		}
		if r.PetriComparable && r.PetriFound != r.AssetsFeasible {
			st.PetriSkew++
		}
		if r.StrongFeasible && !r.GraphFeasible {
			st.Gap++
		}
	}
	return st
}

// Normalized returns the Config with defaults applied, so callers that
// partition a sweep across processes (the service's distributed sweep)
// agree with RunContext on the effective N and worker counts.
func (c Config) Normalized() Config { return c.withDefaults() }

// Partition splits the index space [0, n) into at most parts
// contiguous, near-equal ranges (the trailing ranges are one shorter
// when n is not divisible). Empty ranges are omitted, so the result
// has min(parts, n) entries. The cluster's distributed sweep assigns
// range i to live member i; the same deterministic split on every node
// keeps retries idempotent.
func Partition(n, parts int) [][2]int {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	for i := 0; i < parts; i++ {
		lo := i * n / parts
		hi := (i + 1) * n / parts
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// Merge stitches partial reports (from RunContextRange, typically run
// on different nodes) back into one full report over cfg. Results are
// placed by their global Index; indices no part completed stay not-done
// and the merged report is marked Canceled, aggregating only what ran.
// Because runOne depends only on (cfg, index) — never on which worker,
// process or node executed it — merging the complete partition of
// [0, N) reproduces a single-node run's Results, Stats and Summary
// byte for byte. Durations are carried over per index but remain, as
// in any report, machine-dependent.
func Merge(cfg Config, parts ...*Report) *Report {
	cfg = cfg.withDefaults()
	results := make([]Result, cfg.N)
	durations := make([]time.Duration, cfg.N)
	done := make([]bool, cfg.N)
	var elapsed time.Duration
	for _, part := range parts {
		if part == nil {
			continue
		}
		if part.Elapsed > elapsed {
			elapsed = part.Elapsed
		}
		for j, r := range part.Results {
			if r.Index < 0 || r.Index >= cfg.N {
				continue
			}
			if j < len(part.Done) && !part.Done[j] {
				continue
			}
			results[r.Index] = r
			if j < len(part.Durations) {
				durations[r.Index] = part.Durations[j]
			}
			done[r.Index] = true
		}
	}
	completed := 0
	for _, d := range done {
		if d {
			completed++
		}
	}
	rep := &Report{
		Config:    cfg,
		Results:   results,
		Durations: durations,
		Done:      done,
		Completed: completed,
		Canceled:  completed < cfg.N,
		Elapsed:   elapsed,
	}
	if rep.Canceled {
		rep.Stats = aggregatePartial(results, done)
	} else {
		rep.Stats = aggregate(results)
	}
	return rep
}

// Violations reports the soundness-violation count: agreement properties
// that must hold on every instance (graph ⊆ assets, strong ⊆ assets,
// petri = assets where comparable), chaos runs that broke the safety
// contract, plus outright errors.
func (st Stats) Violations() int {
	return st.Errors + st.Unsound + st.Disorder + st.PetriSkew + st.ChaosUnsafe
}

// Summary renders the report for the command line.
func (r *Report) Summary() string {
	var b strings.Builder
	st := r.Stats
	fmt.Fprintf(&b, "sweep: %d %s problems, seed %d, %d workers\n",
		st.Problems, r.Config.Family, r.Config.Seed, r.Config.Workers)
	fmt.Fprintf(&b, "  graph-feasible      %4d\n", st.Feasible)
	fmt.Fprintf(&b, "  assets-feasible     %4d\n", st.Assets)
	fmt.Fprintf(&b, "  strong-feasible     %4d\n", st.Strong)
	fmt.Fprintf(&b, "  petri-completable   %4d (capped %d)\n", st.Covered, st.Capped)
	fmt.Fprintf(&b, "  search-skipped      %4d (over %d exchanges)\n", st.Skipped, r.Config.MaxSearchExchanges)
	fmt.Fprintf(&b, "  incompleteness gap  %4d (strong-feasible, graph impasse)\n", st.Gap)
	if st.ChaosRuns > 0 {
		fmt.Fprintf(&b, "  chaos runs          %4d (unsafe %d)\n", st.ChaosRuns, st.ChaosUnsafe)
	}
	fmt.Fprintf(&b, "  violations          %4d (errors %d, unsound %d, order %d, petri skew %d, chaos %d)\n",
		st.Violations(), st.Errors, st.Unsound, st.Disorder, st.PetriSkew, st.ChaosUnsafe)
	return b.String()
}
