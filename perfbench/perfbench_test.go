package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"trustseq/internal/dsl"
	"trustseq/internal/service"
)

func wire(r request) []byte {
	return append([]byte(r.method+" "+r.path+"\n"), r.body...)
}

// streamBytes renders the first n requests of every connection of a
// serve-* workload, one byte string per connection.
func streamBytes(t *testing.T, workload string, seed int64, n int) [][]byte {
	t.Helper()
	out := make([][]byte, conns)
	for c := range out {
		var b bytes.Buffer
		switch workload {
		case "serve-hot":
			pool, err := hotPool(seed)
			if err != nil {
				t.Fatal(err)
			}
			s := hotStreams(seed)[c]
			for i := 0; i < n; i++ {
				b.Write(wire(hotRequest(pool, s, i)))
			}
		case "serve-cold":
			s, err := newColdStream(seed, c, 2*crossEvery)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				b.Write(wire(s.at(i).req))
			}
		case "serve-audit":
			sh := auditShape{leaves: 300, pool: 64}
			specs, err := auditSpecs(seed, sh)
			if err != nil {
				t.Fatal(err)
			}
			s := newAuditStream(seed, c, sh)
			for i := 0; i < n; i++ {
				op := s.at(i)
				b.Write(wire(request{"POST", "/v1/analyze", specs[op.spec]}))
				b.Write(wire(request{"GET", proofPath(op, "digest"), nil}))
			}
		}
		out[c] = b.Bytes()
	}
	return out
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, w := range []string{"serve-hot", "serve-cold", "serve-audit"} {
		a := streamBytes(t, w, 7, 200)
		b := streamBytes(t, w, 7, 200)
		other := streamBytes(t, w, 8, 200)
		for c := 0; c < conns; c++ {
			if !bytes.Equal(a[c], b[c]) {
				t.Errorf("%s connection %d: the same seed gave different request streams", w, c)
			}
			if bytes.Equal(a[c], other[c]) {
				t.Errorf("%s connection %d: seeds 7 and 8 gave the same request stream", w, c)
			}
		}
		if bytes.Equal(a[0], a[1]) {
			t.Errorf("%s: both connections send the same stream", w)
		}
	}
}

func TestHotPoolFitsCache(t *testing.T) {
	pool, err := hotPool(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if capacity := trustdOptions().CacheEntries; len(pool) > capacity {
		t.Fatalf("the hot pool holds %d specs, the cache %d", len(pool), capacity)
	}
	digests := make(map[[2]uint64]bool)
	large := 0
	for i, src := range pool {
		p, err := dsl.Load(string(src))
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		digests[service.ProblemDigest(p)] = true
		if n := len(src); n >= 10<<10 {
			large++
			if n > 64<<10 {
				t.Errorf("spec %d is %d bytes, want at most ~60 KB", i, n)
			}
		}
	}
	if len(digests) != len(pool) {
		t.Errorf("the hot pool has %d distinct specs in %d", len(digests), len(pool))
	}
	if large != hotLarge {
		t.Errorf("%d specs of 10 KB or more, want %d", large, hotLarge)
	}
}

func TestColdCrosscheckNeverCapsPetri(t *testing.T) {
	opts := trustdOptions()
	for _, seed := range []int64{defaultSeed, 2, 3} {
		for s := 0; s <= coldSetupStream; s++ {
			cs, err := newColdStream(seed, s, coldMarkets)
			if err != nil {
				t.Fatal(err)
			}
			cross := 0
			for i := 0; i < coldMarkets; i++ {
				spec := cs.at(i)
				if !spec.cross {
					continue
				}
				cross++
				p, err := dsl.Load(string(spec.req.body))
				if err != nil {
					t.Fatalf("seed %d stream %d request %d: %v", seed, s, i, err)
				}
				if len(p.Exchanges) <= opts.MaxSearchExchanges && !petriFinishes(p, opts.PetriBudget) {
					t.Errorf("seed %d stream %d request %d: crosscheck reaches the Petri budget", seed, s, i)
				}
			}
			if cross != coldMarkets/crossEvery {
				t.Errorf("seed %d stream %d: %d crosscheck requests in %d, want 1 in %d", seed, s, cross, coldMarkets, crossEvery)
			}
		}
	}
}

func TestColdRequestsNeverRepeat(t *testing.T) {
	seen := make(map[[2]uint64]string)
	for s := 0; s <= coldSetupStream; s++ {
		cs, err := newColdStream(defaultSeed, s, 2*crossEvery)
		if err != nil {
			t.Fatal(err)
		}
		// Three passes over the markets: a request's name keeps its
		// cache key apart from every earlier request on the same market.
		for i := 0; i < 6*crossEvery; i++ {
			p, err := dsl.Load(string(cs.at(i).req.body))
			if err != nil {
				t.Fatal(err)
			}
			d := service.ProblemDigest(p)
			if prev, ok := seen[d]; ok {
				t.Fatalf("%s repeats %s", p.Name, prev)
			}
			seen[d] = p.Name
		}
	}
}

func TestAuditLogSizeUnchangedAcrossWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	sh := auditShape{leaves: 301, pool: 64}
	out, err := runAudit(config{seed: defaultSeed, window: 300 * time.Millisecond}, sh)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("audit window: correct=%v attempted=%d failed=%d (%v)", out.Correct, out.Attempted, out.Failed, out.info["first_error"])
	}
	start, end := out.info["vlog_size_start"], out.info["vlog_size_end"]
	if start != uint64(sh.leaves) || end != uint64(sh.leaves) {
		t.Fatalf("log size %v at window start and %v at end, want %d", start, end, sh.leaves)
	}
}

func TestResultLineHasContractKeys(t *testing.T) {
	l := &loop{lat: []time.Duration{time.Millisecond, 2 * time.Millisecond}, elapsed: time.Second, cpu: time.Millisecond, peakHeap: 1 << 20}
	data, err := json.Marshal(endToEnd([]float64{1, 2, 3}, l))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 || m["correct"] == nil || m["attempted"] == nil || m["failed"] == nil || m["metrics"] == nil {
		t.Fatalf("result line %s, want exactly correct, attempted, failed and metrics", data)
	}
}
