package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the "le" semantics: an observation
// equal to a bound lands in that bound's bucket, one above it lands in
// the next, and anything beyond the last bound lands in overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test", []float64{1, 10, 100})
	for _, v := range []float64{0, 1, 1.5, 10, 10.5, 100, 101, 1e9} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["test"]
	wantCounts := []int64{2, 2, 2, 2} // (-inf,1], (1,10], (10,100], (100,+inf)
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("counts = %v", s.Counts)
	}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], want, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	if want := 0.0 + 1 + 1.5 + 10 + 10.5 + 100 + 101 + 1e9; s.Sum != want {
		t.Errorf("sum = %g, want %g", s.Sum, want)
	}
}

// TestHistogramUnsortedBounds confirms the registry sorts the layout so
// bucket search stays correct whatever order the caller wrote.
func TestHistogramUnsortedBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("unsorted", []float64{100, 1, 10})
	h.Observe(5)
	s := r.Snapshot().Histograms["unsorted"]
	if s.Counts[1] != 1 {
		t.Errorf("observation of 5 not in (1,10] bucket: %v (bounds %v)", s.Counts, s.Bounds)
	}
}

// TestConcurrentCounters hammers one counter, one gauge and one
// histogram from many goroutines; run under -race this is the
// data-race check, and the totals check the arithmetic.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			h := r.Histogram("lat", DurationBuckets())
			for i := 0; i < perG; i++ {
				c.Inc()
				r.Gauge("level").Add(1)
				h.Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("level").Value(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("lat", nil).Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestNilRegistrySafe confirms the whole metrics surface no-ops on nil.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", CountBuckets()).Observe(1)
	if v := r.Counter("x").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
}

func TestSnapshotJSONAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("sweep.disagreements").Add(0)
	r.Counter("search.memo.hits").Add(42)
	r.Gauge("sweep.problems_per_sec").Set(17)
	r.Histogram("sweep.latency.random", []float64{0.1, 1}).Observe(0.05)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON = %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if back.Counters["search.memo.hits"] != 42 {
		t.Errorf("round-tripped counter = %d", back.Counters["search.memo.hits"])
	}
	if !strings.Contains(buf.String(), `"sweep.disagreements": 0`) {
		t.Errorf("disagreement counter not grep-able in JSON:\n%s", buf.String())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	srv := httptest.NewServer(MetricsHandler(r, nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET = %v", err)
	}
	defer resp.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatalf("decode = %v", err)
	}
	if s.Counters["c"] != 7 {
		t.Errorf("served counter = %d", s.Counters["c"])
	}
}
