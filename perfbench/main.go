// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload for a fixed window and prints, as the last line of
// its standard output, one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end
// numbers a user of trustd or trustsim sees; with --trace 1 the same
// inputs are also replayed through each layer's public function under a
// span recorder, and the metrics are per-layer costs. The line before
// the result records the machine, the seed and the sample counts.
// README.md describes the workloads and every metric.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload serve-hot [--seed 1] [--seconds 15] [--trace 0|1]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the workload seed the benchmark was tuned on. Any other
// seed is held out; README.md shows a run on one.
const defaultSeed = 1

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload run receives.
type config struct {
	seed     int64
	window   time.Duration
	trace    bool
	traceDir string
}

// outcome is a finished workload run: the result line plus the details
// printed on the line before it (sample counts, log sizes, set-up runs).
type outcome struct {
	result
	info map[string]any
}

// workloads maps each --workload name to its run function.
var workloads = map[string]func(config) (*outcome, error){
	"serve-hot":      serveHot,
	"serve-cold":     serveCold,
	"serve-audit":    serveAudit,
	"population-sim": populationSim,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the exit: it parses the flags, runs the workload
// and prints the two output lines. A run that cannot measure (bad flags,
// a set-up failure) prints no result and returns non-zero.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "measurement window in seconds")
	traced := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs the traced replay and prints per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload {%s} [--seed N] [--seconds N] [--trace 0|1]\n", strings.Join(names, ","))
		return 2
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traced == 1, traceDir: *traceDir}
	out, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for k, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is %v\n", *name, k, m.Value)
			return 1
		}
	}
	info := map[string]any{
		"workload": *name,
		"seed":     *seed,
		"seconds":  *seconds,
		"trace":    *traced,
		"machine":  machine(),
	}
	for k, v := range out.info {
		info[k] = v
	}
	bw := bufio.NewWriter(stdout)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := enc.Encode(out.result); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// machine describes where the numbers were taken.
func machine() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo; "unknown" where
// the kernel does not provide one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
