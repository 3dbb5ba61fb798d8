package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/vlog"
)

// vlogRun runs a plan with the verifiable log on, under mild chaos so
// the trace exercises notifies, retries, and timers, not just the happy
// path.
func vlogRun(t *testing.T, pl *core.Plan, seed int64) *Result {
	t.Helper()
	res, err := Run(pl, Options{
		Seed: seed, BaseLatency: 3, Jitter: 2,
		NotifyDropRate: 0.05, NotifyRetries: 2,
		VLog: true,
	})
	if err != nil {
		t.Fatalf("%s: run: %v", pl.Problem.Name, err)
	}
	return res
}

// Every generator family: every trace event must produce a verifying
// membership proof, and every prefix pair a verifying consistency
// proof, under the run's published settlement root.
func TestVLogProofsAcrossCorpus(t *testing.T) {
	t.Parallel()
	for _, pl := range chaosCorpus(t) {
		res := vlogRun(t, pl, 42)
		l := res.SettlementLog
		if l == nil || res.SettlementRoot == "" {
			t.Fatalf("%s: VLog run produced no settlement log", pl.Problem.Name)
		}
		root, err := vlog.ParseHash(res.SettlementRoot)
		if err != nil {
			t.Fatalf("%s: bad root %q: %v", pl.Problem.Name, res.SettlementRoot, err)
		}
		n := l.Size()
		if n != uint64(len(res.Trace)) {
			t.Fatalf("%s: log has %d leaves for %d trace entries", pl.Problem.Name, n, len(res.Trace))
		}
		for i, m := range res.Trace {
			leaf := vlog.LeafHash(AuditRecord(m))
			path, err := l.MembershipProof(uint64(i), n)
			if err != nil {
				t.Fatalf("%s: proof %d: %v", pl.Problem.Name, i, err)
			}
			if err := vlog.VerifyMembership(root, uint64(i), n, leaf, path); err != nil {
				t.Fatalf("%s: entry %d rejected: %v", pl.Problem.Name, i, err)
			}
		}
		// Every prefix pair, striding for the large traces.
		stride := uint64(1)
		if n > 24 {
			stride = n / 24
		}
		for m := uint64(1); m <= n; m += stride {
			oldRoot, err := l.RootAt(m)
			if err != nil {
				t.Fatalf("%s: RootAt(%d): %v", pl.Problem.Name, m, err)
			}
			path, err := l.ConsistencyProof(m, n)
			if err != nil {
				t.Fatalf("%s: consistency(%d, %d): %v", pl.Problem.Name, m, n, err)
			}
			if err := vlog.VerifyConsistency(m, n, oldRoot, root, path); err != nil {
				t.Fatalf("%s: consistency(%d, %d) rejected: %v", pl.Problem.Name, m, n, err)
			}
		}
		// The proof-checked replay must agree with the plain one.
		plain, err := res.ReplayBalances()
		if err != nil {
			t.Fatalf("%s: replay: %v", pl.Problem.Name, err)
		}
		verified, err := res.ReplayBalancesVerified()
		if err != nil {
			t.Fatalf("%s: verified replay: %v", pl.Problem.Name, err)
		}
		if !reflect.DeepEqual(plain, verified) {
			t.Fatalf("%s: verified replay diverges from plain replay", pl.Problem.Name)
		}
	}
}

// Additivity: enabling the vlog must not change one byte of the trace,
// the verdicts, or the balances — the log is derived from the run, it
// never steers it.
func TestVLogAdditivity(t *testing.T) {
	t.Parallel()
	for _, pl := range chaosCorpus(t)[:4] {
		base, err := Run(pl, Options{Seed: 7, BaseLatency: 3, Jitter: 2, NotifyDropRate: 0.05, NotifyRetries: 2})
		if err != nil {
			t.Fatalf("%s: base run: %v", pl.Problem.Name, err)
		}
		logged := vlogRun(t, pl, 7)
		if !reflect.DeepEqual(base.Trace, logged.Trace) {
			t.Fatalf("%s: VLog changed the trace", pl.Problem.Name)
		}
		if !reflect.DeepEqual(base.Balances, logged.Balances) {
			t.Fatalf("%s: VLog changed balances", pl.Problem.Name)
		}
		if base.Completed() != logged.Completed() || base.Messages != logged.Messages || base.Duration != logged.Duration {
			t.Fatalf("%s: VLog changed the verdict", pl.Problem.Name)
		}
		if RenderTrace(base.Trace) != RenderTrace(logged.Trace) {
			t.Fatalf("%s: VLog changed the rendered trace", pl.Problem.Name)
		}
		if base.SettlementLog != nil || base.SettlementRoot != "" {
			t.Fatalf("%s: disabled run still built a settlement log", pl.Problem.Name)
		}
	}
}

// Corruption corpus at the trace level: truncation, bit-flips (via an
// edited field), swapped entries, and a stale root must all be rejected
// by the proof-checked replay.
func TestVLogReplayRejectsTamperedTraces(t *testing.T) {
	t.Parallel()
	plans := chaosCorpus(t)
	res := vlogRun(t, plans[0], 99)
	root := res.SettlementLog.Root()
	p := res.Problem
	if len(res.Trace) < 4 {
		t.Fatalf("trace too short to tamper with: %d", len(res.Trace))
	}

	cases := map[string]func([]Message) []Message{
		"truncation": func(tr []Message) []Message {
			return tr[:len(tr)-1]
		},
		"bit-flip": func(tr []Message) []Message {
			out := append([]Message(nil), tr...)
			out[2].Action.Amount++
			return out
		},
		"swapped entries": func(tr []Message) []Message {
			out := append([]Message(nil), tr...)
			out[1], out[2] = out[2], out[1]
			return out
		},
		"appended entry": func(tr []Message) []Message {
			return append(append([]Message(nil), tr...), tr[0])
		},
		"retimed entry": func(tr []Message) []Message {
			out := append([]Message(nil), tr...)
			out[0].At++
			return out
		},
		"relabeled endpoint": func(tr []Message) []Message {
			out := append([]Message(nil), tr...)
			out[3].To = out[3].From
			return out
		},
	}
	for name, mutate := range cases {
		if _, err := ReplayBalancesVerified(p, mutate(res.Trace), root); !errors.Is(err, vlog.ErrRootMismatch) {
			t.Fatalf("tampered trace %q: got %v, want ErrRootMismatch", name, err)
		}
	}
	// A stale root (from a prefix of the honest run) must also fail.
	staleRoot, err := res.SettlementLog.RootAt(res.SettlementLog.Size() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayBalancesVerified(p, res.Trace, staleRoot); !errors.Is(err, vlog.ErrRootMismatch) {
		t.Fatalf("stale root: got %v, want ErrRootMismatch", err)
	}
	// The honest trace under the honest root still passes.
	if _, err := ReplayBalancesVerified(p, res.Trace, root); err != nil {
		t.Fatalf("honest trace rejected: %v", err)
	}
}

// AuditRecord is injective over the fields it encodes: distinct
// messages differing in exactly one field get distinct records.
func TestAuditRecordFieldSensitivity(t *testing.T) {
	t.Parallel()
	base := Message{At: 5, From: "a", To: "b", Kind: MsgTransfer}
	base.Action.Amount = 7
	base.Action.Item = "x"
	variants := []func(*Message){
		func(m *Message) { m.At = 6 },
		func(m *Message) { m.From = "c" },
		func(m *Message) { m.To = "c" },
		func(m *Message) { m.Kind = MsgNotify },
		func(m *Message) { m.Action.Amount = 8 },
		func(m *Message) { m.Action.Item = "y" },
		func(m *Message) { m.Action.Inverse = true },
		func(m *Message) { m.Tag = "deadline:1" },
	}
	baseRec := string(AuditRecord(base))
	for i, mutate := range variants {
		m := base
		mutate(&m)
		if string(AuditRecord(m)) == baseRec {
			t.Fatalf("variant %d encodes identically to the base message", i)
		}
	}
	// Field boundaries are explicit: moving a byte across the From/To
	// boundary changes the record.
	a := Message{From: "ab", To: "c"}
	b := Message{From: "a", To: "bc"}
	if string(AuditRecord(a)) == string(AuditRecord(b)) {
		t.Fatal("record encoding is not prefix-free across fields")
	}
}

// SettlementLog encodes every record into one reused buffer and sizes
// the log's levels up front. Neither may change a byte: over the chaos
// corpus's traces the reused-buffer encoding equals AuditRecord entry
// for entry, and the presized log's root equals the root of a plain
// vlog.New log appended record by record, at every size around a power
// of two.
func TestSettlementLogMatchesAuditRecord(t *testing.T) {
	t.Parallel()
	var trace []Message
	for _, pl := range chaosCorpus(t) {
		res := vlogRun(t, pl, 7)
		var buf []byte
		for i := range res.Trace {
			buf = appendAuditRecord(buf[:0], &res.Trace[i])
			if want := AuditRecord(res.Trace[i]); string(buf) != string(want) {
				t.Fatalf("%s: entry %d encodes to %x in the reused buffer, AuditRecord %x",
					pl.Problem.Name, i, buf, want)
			}
		}
		trace = append(trace, res.Trace...)
	}
	sizes := []int{0, 1}
	for k := 1; 1<<k+1 <= len(trace); k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	if len(sizes) < 2+3*6 {
		t.Fatalf("corpus traces hold %d entries, too few to cover sizes up to 2^6+1", len(trace))
	}
	for _, n := range sizes {
		plain := vlog.New()
		for _, m := range trace[:n] {
			plain.Append(AuditRecord(m))
		}
		if got, want := SettlementLog(trace[:n]).Root(), plain.Root(); got != want {
			t.Fatalf("%d leaves: presized root %s, appended root %s", n, got, want)
		}
	}
}

// populationTraces holds the delivered-message traces of one run of
// gen.Population(consumers, 0, 10), by consumer count: about ten trace
// entries per consumer. Synthesis dominates their cost, so each is
// built once per process.
var populationTraces sync.Map

func populationTrace(tb testing.TB, consumers int) []Message {
	tb.Helper()
	if tr, ok := populationTraces.Load(consumers); ok {
		return tr.([]Message)
	}
	plan, err := core.Synthesize(gen.Population(consumers, 0, 10))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := Run(plan, Options{Seed: 1, Deadline: 20000})
	if err != nil {
		tb.Fatal(err)
	}
	if !res.Completed() {
		tb.Fatalf("%d-consumer population run missed its deadline", consumers)
	}
	populationTraces.Store(consumers, res.Trace)
	return res.Trace
}

// SettlementLog allocates the same few blocks at every trace length:
// the log, its levels in one block, and the encode buffer. A per-record
// allocation would add thousands.
func TestSettlementLogAllocsFlat(t *testing.T) {
	trace := populationTrace(t, 1000)
	counts := map[int]float64{}
	for _, n := range []int{len(trace) / 100, len(trace) / 10, len(trace)} {
		counts[n] = testing.AllocsPerRun(5, func() { SettlementLog(trace[:n]) })
	}
	for n, c := range counts {
		if c != counts[len(trace)] {
			t.Fatalf("SettlementLog allocates %v times for %d entries, %v times for %d", c, n, counts[len(trace)], len(trace))
		}
	}
}

// BenchmarkSettlementLog builds the settlement log of 10^4- and
// 10^5-entry population traces, reporting entries/s.
func BenchmarkSettlementLog(b *testing.B) {
	for _, consumers := range []int{1000, 10000} {
		trace := populationTrace(b, consumers)
		b.Run(fmt.Sprintf("entries=%d", len(trace)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SettlementLog(trace)
			}
			b.ReportMetric(float64(len(trace))*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
		})
	}
}
