package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trustseq/internal/model"
)

func spec(name string) string {
	return filepath.Join("..", "..", "examples", "specs", name)
}

// runCLI invokes run with a background context and discarded stderr.
func runCLI(args []string, out io.Writer) error {
	return run(context.Background(), args, out, io.Discard)
}

func TestHonestRun(t *testing.T) {
	var out bytes.Buffer
	if err := runCLI([]string{spec("example1.exch")}, &out); err != nil {
		t.Fatalf("run = %v", err)
	}
	got := out.String()
	for _, want := range []string{"completed=true", "acceptable=true", "neutral=true"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestDefectorRun(t *testing.T) {
	var out bytes.Buffer
	if err := runCLI([]string{"-defect", "b", spec("example1.exch")}, &out); err != nil {
		t.Fatalf("run = %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "completed=false") || !strings.Contains(got, "defector=true") {
		t.Errorf("output:\n%s", got)
	}
}

func TestInfeasibleRejected(t *testing.T) {
	var out bytes.Buffer
	if err := runCLI([]string{spec("example2.exch")}, &out); err == nil {
		t.Fatalf("infeasible spec accepted")
	}
}

func TestParseDefectors(t *testing.T) {
	got, err := parseDefectors("a, b:3 ,c:0")
	if err != nil {
		t.Fatalf("parseDefectors = %v", err)
	}
	want := map[model.PartyID]int{"a": 0, "b": 3, "c": 0}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	if _, err := parseDefectors("x:-1"); err == nil {
		t.Errorf("negative steps accepted")
	}
	if _, err := parseDefectors("x:zzz"); err == nil {
		t.Errorf("garbage steps accepted")
	}
	if m, err := parseDefectors(""); err != nil || len(m) != 0 {
		t.Errorf("empty spec = %v, %v", m, err)
	}
}

func TestSweepMode(t *testing.T) {
	var out bytes.Buffer
	if err := runCLI([]string{"-n", "8", "-workers", "4", "-seed", "21"}, &out); err != nil {
		t.Fatalf("run = %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"sweep: 8 random problems", "violations", "graph-feasible"} {
		if !strings.Contains(got, want) {
			t.Errorf("sweep output missing %q:\n%s", want, got)
		}
	}
	// The report must be independent of the worker count.
	var serial bytes.Buffer
	if err := runCLI([]string{"-n", "8", "-workers", "1", "-seed", "21"}, &serial); err != nil {
		t.Fatalf("serial run = %v", err)
	}
	gotLines := strings.SplitN(got, "\n", 2)
	serialLines := strings.SplitN(serial.String(), "\n", 2)
	if len(gotLines) != 2 || len(serialLines) != 2 || gotLines[1] != serialLines[1] {
		t.Errorf("sweep stats differ across worker counts:\n%s\nvs\n%s", got, serial.String())
	}
}

func TestSweepModeRejectsSpecFile(t *testing.T) {
	var out bytes.Buffer
	if err := runCLI([]string{"-n", "3", spec("example1.exch")}, &out); err == nil {
		t.Fatal("sweep mode with a spec file accepted")
	}
	if err := runCLI([]string{"-n", "3", "-family", "bogus"}, &out); err == nil {
		t.Fatal("bogus family accepted")
	}
}

func TestTimelineAndDropFlags(t *testing.T) {
	var out bytes.Buffer
	if err := runCLI([]string{"-timeline", "-drop", "0.9", "-deadline", "40", spec("example1.exch")}, &out); err != nil {
		t.Fatalf("run = %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "delivered messages:") {
		t.Errorf("timeline missing:\n%s", got)
	}
	if !strings.Contains(got, "assets-safe=true") {
		t.Errorf("asset safety report missing:\n%s", got)
	}
}

// TestTraceAndMetricsFiles is the acceptance path: a traced sweep must
// leave a non-empty JSONL trace whose every line parses, carrying span
// events from the search, petri and sweep layers, plus a metrics
// snapshot with the memo-hit/miss counters, per-family latency
// histograms and an explicit zero disagreement counter.
func TestTraceAndMetricsFiles(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	metricsPath := filepath.Join(dir, "metrics.json")

	var out bytes.Buffer
	if err := runCLI([]string{"-n", "16", "-seed", "7",
		"-trace", tracePath, "-metrics", metricsPath}, &out); err != nil {
		t.Fatalf("run = %v\n%s", err, out.String())
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	defer f.Close()
	names := map[string]bool{}
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %d unparseable: %v\n%s", lines, err, sc.Text())
		}
		if name, ok := ev["name"].(string); ok {
			names[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning trace: %v", err)
	}
	if lines == 0 {
		t.Fatal("trace file is empty")
	}
	for _, want := range []string{"sweep.run", "sweep.problem", "search.feasible", "petri.cover", "core.synthesize"} {
		if !names[want] {
			t.Errorf("trace has no %q events; saw %v", want, names)
		}
	}

	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics file: %v", err)
	}
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]any   `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics unparseable: %v", err)
	}
	if got, ok := snap.Counters["sweep.disagreements"]; !ok || got != 0 {
		t.Errorf("sweep.disagreements = %d (present %v), want explicit 0", got, ok)
	}
	for _, want := range []string{"search.memo.hits", "search.memo.misses", "petri.states"} {
		if _, ok := snap.Counters[want]; !ok {
			t.Errorf("metrics missing counter %q", want)
		}
	}
	found := false
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "sweep.latency.") {
			found = true
		}
	}
	if !found {
		t.Error("metrics missing per-family sweep.latency.* histogram")
	}
	// The snapshot is grep-stable for CI: indented JSON, sorted keys.
	if !strings.Contains(string(raw), `"sweep.disagreements": 0`) {
		t.Error(`snapshot not grep-stable for "sweep.disagreements": 0`)
	}
}

// TestSimTraceFile checks the single-simulation audit log lands on
// disk: sim.deliver events with virtual timestamps, one per delivered
// message.
func TestSimTraceFile(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "sim.jsonl")
	var out bytes.Buffer
	if err := runCLI([]string{"-trace", tracePath, spec("example1.exch")}, &out); err != nil {
		t.Fatalf("run = %v", err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if !bytes.Contains(raw, []byte(`"sim.deliver"`)) || !bytes.Contains(raw, []byte(`"sim.run"`)) {
		t.Errorf("sim trace lacks audit events:\n%.500s", raw)
	}
}

// TestCanceledSweepReportsPartial covers the SIGINT path below the
// signal layer: a pre-canceled context yields a partial, nonzero-exit
// sweep with the interruption noted on stderr.
func TestCanceledSweepReportsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errw bytes.Buffer
	err := run(ctx, []string{"-n", "8", "-seed", "3"}, &out, &errw)
	if err == nil {
		t.Fatal("canceled sweep exited clean")
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Errorf("error = %v, want interruption", err)
	}
	if !strings.Contains(errw.String(), "interrupted after") {
		t.Errorf("stderr missing partial summary:\n%s", errw.String())
	}
}

// A checkpoint tick no event reaches fails the run: the command exits
// non-zero, names the tick, and leaves no checkpoint file behind.
func TestCheckpointNotReachedFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "late.tsq8")
	var out bytes.Buffer
	err := runCLI([]string{"-principals", "10", "-deadline", "20000", "-seed", "1",
		"-checkpoint", path, "-checkpoint-at", "100000000"}, &out)
	if err == nil || !strings.Contains(err.Error(), "checkpoint tick") {
		t.Fatalf("run = %v, want a checkpoint-not-reached error", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("unreached checkpoint left a file: %v", statErr)
	}
}
