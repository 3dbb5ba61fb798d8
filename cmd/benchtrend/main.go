// Command benchtrend runs the tier-1 benchmark set and writes a JSON
// trend file (name → ns/op, allocs/op, B/op, plus any custom units the
// benchmark reports, e.g. principals/s) comparing the current tree
// against the recorded pre-compile-pass baselines, then enforces the
// cross-benchmark gates in-process: the 10x incremental-edit speedup
// floor, the 5x wheel-over-heap scheduling floor at 10^5 pending
// timers, the 1.5x bytes-per-principal flatness ceiling from 10^3 to
// 10^5 principals, the 4x proof cost ceilings from 2^10 to 2^20 and
// from 10^3 to 10^6 log leaves, and the sweep soundness contract (any nonzero
// engine-disagreement counter is a hard failure), so CI cannot publish
// numbers from a tree whose engines disagree or whose scaling story
// has regressed.
//
// Usage:
//
//	benchtrend                      # gate benchmarks at the default -benchtime 100x, write BENCH_latest.json
//	benchtrend -benchtime 1s        # time-based sampling instead of the fixed-iteration default
//	benchtrend -bench 'Sweep'       # restrict the benchmark regexp
//	benchtrend -scale=false         # skip the population/scheduler scale benchmarks
//	benchtrend -out trend.json      # alternate output path
//	benchtrend -compare old.json new.json   # diff two trend files, non-zero exit on regression
//	benchtrend -compare -threshold 10 a b   # tighten the regression threshold to 10%
//
// BENCH_latest.json is the rolling, gitignored output; the committed
// snapshots (BENCH_pr3.json, BENCH_pr6.json, BENCH_pr8.json,
// BENCH_pr10.json) are the frozen baselines it is compared against.
// Since PR 10 the set also samples the verifiable-log proof paths
// (append, membership generation/verification, consistency
// verification) so proof cost per operation is tracked over time.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"trustseq/internal/sweep"
)

// Metrics is one benchmark's measurement set: the standard triple plus
// any custom units the benchmark reported via b.ReportMetric (the
// population benchmarks emit "principals/s" and "B/principal").
type Metrics struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Delta is the relative change of a benchmark against its baseline,
// negative numbers meaning improvement.
type Delta struct {
	NsPct     float64 `json:"ns_pct"`
	BytesPct  float64 `json:"bytes_pct"`
	AllocsPct float64 `json:"allocs_pct"`
}

// Trend is the file schema.
type Trend struct {
	// Baseline holds the pre-PR measurements (Intel Xeon @ 2.10GHz,
	// -benchtime 5x) recorded before the compile pass landed.
	Baseline map[string]Metrics `json:"baseline"`
	Current  map[string]Metrics `json:"current"`
	Delta    map[string]Delta   `json:"delta,omitempty"`
}

// baseline is the pre-PR tier-1 measurement set. Only benchmarks with a
// recorded baseline get a delta; everything else is reported as-is.
var baseline = map[string]Metrics{
	"BenchmarkReduceChain/brokers=256": {NsPerOp: 161107, BytesPerOp: 206137, AllocsPerOp: 535},
	"BenchmarkPetriCompletableFigure7": {NsPerOp: 26011157, BytesPerOp: 12772360, AllocsPerOp: 41614},
	"BenchmarkSweepSerial":             {NsPerOp: 237941890, BytesPerOp: 113105128, AllocsPerOp: 2047911},
}

func main() {
	// The default is PR-agnostic: CI always overwrites the same latest
	// file, while committed historical snapshots (e.g. BENCH_pr3.json)
	// stay frozen.
	out := flag.String("out", "BENCH_latest.json", "output JSON path")
	bench := flag.String("bench", "BenchmarkReduceChain|BenchmarkPetriCompletableFigure7|BenchmarkSweepSerial|BenchmarkEditReanalysis", "benchmark regexp passed to go test")
	benchtime := flag.String("benchtime", "100x", "go test -benchtime value")
	compare := flag.Bool("compare", false, "diff two trend files (old.json new.json) instead of running benchmarks")
	threshold := flag.Float64("threshold", 20, "regression threshold in percent for -compare")
	scale := flag.Bool("scale", true, "also run the population and scheduler scale benchmarks and their gates")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchtrend: -compare needs exactly two trend files: old.json new.json")
			os.Exit(2)
		}
		if !runCompare(flag.Arg(0), flag.Arg(1), *threshold) {
			os.Exit(1)
		}
		return
	}

	current, err := runBenchmarks(*bench, *benchtime, ".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
		os.Exit(1)
	}
	if *scale {
		// The scale benchmarks get their own sampling plans: the
		// scheduler microbenchmark needs a fixed large iteration count
		// to reach queue steady state, while one iteration of the
		// population benchmark already simulates 10^3–10^5 principals
		// end to end.
		sched, err := runBenchmarks("BenchmarkSchedulerTimers", "300000x", "./internal/sim")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtrend: scheduler benchmarks: %v\n", err)
			os.Exit(1)
		}
		pop, err := runBenchmarks("BenchmarkPopulationSim", "1x", ".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtrend: population benchmarks: %v\n", err)
			os.Exit(1)
		}
		for name, m := range sched {
			current[name] = m
		}
		for name, m := range pop {
			current[name] = m
		}
	}
	// The verifiable-log proof paths are cheap (microseconds at the
	// fixed 1024-leaf tree the benchmarks build), so they always run:
	// every snapshot from BENCH_pr10.json on records append, membership
	// generation/verification, and consistency-verification ns/op.
	// Proof generation, at 1024 and 2^20 leaves and at the unaligned
	// 10^3 and 10^6, gets its own fixed large iteration count: at a few
	// microseconds per proof or less, the default 100 iterations are too
	// few for the growth gates below.
	proof, err := runBenchmarks(
		"^(BenchmarkAppend|BenchmarkProofVerify|BenchmarkConsistencyVerify)$",
		*benchtime, "./internal/vlog")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: vlog benchmarks: %v\n", err)
		os.Exit(1)
	}
	gen, err := runBenchmarks(
		"^(BenchmarkProofGenerate|BenchmarkProofGenerateLarge|BenchmarkProofsUnaligned|BenchmarkProofsUnalignedLarge)$",
		"100000x", "./internal/vlog")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: vlog proof benchmarks: %v\n", err)
		os.Exit(1)
	}
	for _, set := range []map[string]Metrics{proof, gen} {
		for name, m := range set {
			current[name] = m
		}
	}
	trend := Trend{Baseline: baseline, Current: current, Delta: map[string]Delta{}}
	for name, base := range baseline {
		cur, ok := current[name]
		if !ok {
			continue
		}
		trend.Delta[name] = Delta{
			NsPct:     pct(cur.NsPerOp, base.NsPerOp),
			BytesPct:  pct(cur.BytesPerOp, base.BytesPerOp),
			AllocsPct: pct(cur.AllocsPerOp, base.AllocsPerOp),
		}
	}
	data, err := json.MarshalIndent(trend, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: marshal: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
		os.Exit(1)
	}
	for name, d := range trend.Delta {
		fmt.Printf("%-40s ns %+.1f%%  B %+.1f%%  allocs %+.1f%%\n", name, d.NsPct, d.BytesPct, d.AllocsPct)
	}
	fmt.Printf("benchtrend: wrote %s (%d benchmarks)\n", *out, len(current))

	// The incremental-analysis speedup gate: a one-line edit of the
	// 256-broker chain must analyse at least 10x faster by patching than
	// from scratch, whenever this run measured both modes.
	full, okFull := current["BenchmarkEditReanalysis/mode=full"]
	patched, okPatched := current["BenchmarkEditReanalysis/mode=patched-reuse"]
	if okFull && okPatched {
		if patched.NsPerOp <= 0 {
			fmt.Fprintln(os.Stderr, "benchtrend: patched-reuse measured at 0 ns/op; sample too small")
			os.Exit(1)
		}
		speedup := full.NsPerOp / patched.NsPerOp
		fmt.Printf("benchtrend: incremental edit speedup %.1fx (full %.0f ns/op, patched %.0f ns/op)\n",
			speedup, full.NsPerOp, patched.NsPerOp)
		if speedup < 10 {
			fmt.Fprintf(os.Stderr, "benchtrend: incremental speedup %.1fx is below the 10x floor\n", speedup)
			os.Exit(1)
		}
	}

	// The timing-wheel gate: with 10^5 pending deadline timers, the
	// wheel must schedule+fire at least 5x faster than the heap
	// baseline, whenever this run measured both queues.
	wheel, okWheel := current["BenchmarkSchedulerTimers/queue=wheel/pending=100000"]
	heap, okHeap := current["BenchmarkSchedulerTimers/queue=heap/pending=100000"]
	if okWheel && okHeap {
		if wheel.NsPerOp <= 0 {
			fmt.Fprintln(os.Stderr, "benchtrend: wheel measured at 0 ns/op; sample too small")
			os.Exit(1)
		}
		speedup := heap.NsPerOp / wheel.NsPerOp
		fmt.Printf("benchtrend: wheel-over-heap speedup %.1fx at 10^5 pending timers (heap %.0f ns/op, wheel %.0f ns/op)\n",
			speedup, heap.NsPerOp, wheel.NsPerOp)
		if speedup < 5 {
			fmt.Fprintf(os.Stderr, "benchtrend: wheel speedup %.1fx is below the 5x floor\n", speedup)
			os.Exit(1)
		}
	}

	// The flat-memory gate: allocation per principal must not grow by
	// more than 1.5x from 10^3 to 10^5 principals — per-principal state
	// is flat, so any superlinear growth is a scaling bug.
	small, okSmall := current["BenchmarkPopulationSim/principals=1000"]
	large, okLarge := current["BenchmarkPopulationSim/principals=100000"]
	if okSmall && okLarge {
		bSmall, bLarge := small.Extra["B/principal"], large.Extra["B/principal"]
		if bSmall <= 0 || bLarge <= 0 {
			fmt.Fprintln(os.Stderr, "benchtrend: population benchmarks reported no B/principal metric")
			os.Exit(1)
		}
		ratio := bLarge / bSmall
		fmt.Printf("benchtrend: bytes-per-principal 10^3→10^5 ratio %.2fx (%.0f → %.0f B/principal)\n",
			ratio, bSmall, bLarge)
		if ratio > 1.5 {
			fmt.Fprintf(os.Stderr, "benchtrend: bytes-per-principal grew %.2fx from 10^3 to 10^5, above the 1.5x ceiling\n", ratio)
			os.Exit(1)
		}
	}

	// The proof-growth gates: proving against a tree 1000x larger may
	// cost at most 4x as much, both for membership alone at the
	// power-of-two sizes 2^10 and 2^20 and for a root, a membership and a
	// consistency proof at the unaligned sizes 10^3 and 10^6, where the
	// right spine is hashed rather than read. Reading O(log n) stored
	// subtree hashes gives about 2x; recomputing siblings from the
	// leaves, O(n), gives about 1000x.
	proofGrowthGate(current, "BenchmarkProofGenerate", "BenchmarkProofGenerateLarge", "2^10→2^20 leaves")
	proofGrowthGate(current, "BenchmarkProofsUnaligned", "BenchmarkProofsUnalignedLarge", "10^3→10^6 leaves")

	// Soundness re-check: the numbers above are meaningless if the
	// engines disagree, so run a small sweep and fail on any violation.
	rep := sweep.Run(sweep.Config{N: 16, Seed: 17})
	if v := rep.Stats.Violations(); v != 0 {
		fmt.Fprintf(os.Stderr, "benchtrend: sweep reports %d violations\n%s", v, rep.Summary())
		os.Exit(1)
	}
	fmt.Println("benchtrend: sweep soundness check passed (0 violations)")
}

// proofGrowthGate exits non-zero when the large benchmark costs more
// than 4x the small one, whenever this run measured both.
func proofGrowthGate(current map[string]Metrics, small, large, sizes string) {
	s, okSmall := current[small]
	l, okLarge := current[large]
	if !okSmall || !okLarge {
		return
	}
	if s.NsPerOp <= 0 {
		fmt.Fprintf(os.Stderr, "benchtrend: %s measured at 0 ns/op; sample too small\n", small)
		os.Exit(1)
	}
	ratio := l.NsPerOp / s.NsPerOp
	fmt.Printf("benchtrend: proof cost %s ratio %.2fx (%.0f → %.0f ns/op)\n", sizes, ratio, s.NsPerOp, l.NsPerOp)
	if ratio > 4 {
		fmt.Fprintf(os.Stderr, "benchtrend: proof cost grew %.2fx from %s, above the 4x ceiling\n", ratio, sizes)
		os.Exit(1)
	}
}

// runCompare diffs the Current sections of two trend files, printing a
// per-benchmark ns/op and allocs/op delta. It returns false when any
// benchmark present in both files regressed its ns/op by more than
// threshold percent — allocation growth is reported but advisory, since
// alloc counts are gated exactly by the alloc_test budgets.
func runCompare(oldPath, newPath string, threshold float64) bool {
	load := func(path string) (map[string]Metrics, bool) {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtrend: %v\n", err)
			return nil, false
		}
		var t Trend
		if err := json.Unmarshal(data, &t); err != nil {
			fmt.Fprintf(os.Stderr, "benchtrend: %s: %v\n", path, err)
			return nil, false
		}
		if len(t.Current) == 0 {
			fmt.Fprintf(os.Stderr, "benchtrend: %s has no current measurements\n", path)
			return nil, false
		}
		return t.Current, true
	}
	oldM, ok := load(oldPath)
	if !ok {
		return false
	}
	newM, ok := load(newPath)
	if !ok {
		return false
	}

	names := make([]string, 0, len(oldM))
	for name := range oldM {
		if _, ok := newM[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchtrend: the two files share no benchmarks")
		return false
	}
	regressed := 0
	for _, name := range names {
		o, n := oldM[name], newM[name]
		dNs, dAllocs := pct(n.NsPerOp, o.NsPerOp), pct(n.AllocsPerOp, o.AllocsPerOp)
		verdict := "ok"
		if dNs > threshold {
			verdict = "REGRESSION"
			regressed++
		}
		fmt.Printf("%-50s ns %+7.1f%%  allocs %+7.1f%%  %s\n", name, dNs, dAllocs, verdict)
	}
	for name := range newM {
		if _, ok := oldM[name]; !ok {
			fmt.Printf("%-50s (new benchmark, no old measurement)\n", name)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchtrend: %d benchmark(s) regressed past %.0f%% ns/op\n", regressed, threshold)
		return false
	}
	fmt.Printf("benchtrend: %d shared benchmarks within the %.0f%% threshold\n", len(names), threshold)
	return true
}

func pct(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// runBenchmarks shells out to go test and parses the standard benchmark
// output lines.
func runBenchmarks(bench, benchtime, pkg string) (map[string]Metrics, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", bench,
		"-benchmem", "-benchtime", benchtime, pkg)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	results := map[string]Metrics{}
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		line := sc.Text()
		if name, m, ok := parseBenchLine(line); ok {
			results[name] = m
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines matched %q", bench)
	}
	return results, nil
}

// parseBenchLine parses lines like
//
//	BenchmarkSweepSerial-8   3   90242554 ns/op   9180285 B/op   120009 allocs/op
//
// stripping the -GOMAXPROCS suffix from the name.
func parseBenchLine(line string) (string, Metrics, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Metrics{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var m Metrics
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			m.NsPerOp = v
			seen = true
		case "B/op":
			m.BytesPerOp = v
		case "allocs/op":
			m.AllocsPerOp = v
		default:
			// Custom units from b.ReportMetric, e.g. principals/s.
			if strings.Contains(fields[i+1], "/") {
				if m.Extra == nil {
					m.Extra = map[string]float64{}
				}
				m.Extra[fields[i+1]] = v
			}
		}
	}
	return name, m, seen
}
