// Command trustload is the closed-corpus load generator for trustd and
// trustd clusters: it drives a seeded mix of hot (cache-resident) and
// cold (always-fresh) analyze requests at a target rate over a worker
// pool, measures end-to-end latency exactly as a client would see it,
// and reports p50/p90/p99, achieved throughput, error counts and the
// cache/cluster disposition split from the X-Trustd-* response headers.
// With -out it writes the measurements in benchtrend's Trend JSON, so
// the capacity numbers ride the same compare gate as the engine
// microbenchmarks (see BENCH_pr9.json and the CI bench job).
//
// Usage:
//
//	trustload [flags]
//
//	-target ADDR  trustd address, any member of a ring (default 127.0.0.1:8086)
//	-duration D   measurement window (default 10s)
//	-rps N        target request rate; 0 = closed loop, as fast as the
//	              -conns workers go (default 200)
//	-conns N      concurrent connections/workers (default 8)
//	-mix F        fraction of requests drawn from the hot pool (default 0.9)
//	-hot N        hot-pool size in distinct problems (default 16)
//	-seed N       workload RNG seed — same seed, same request stream (default 1)
//	-name NAME    benchmark name for the Trend entry (default TrustloadAnalyze)
//	-out PATH     write benchtrend Trend JSON here (empty = report only)
//	-quiet        suppress the progress line
//
// The workload is deterministic per seed: the hot pool is generated
// up front (gen.Random rendered back to .exch source via dsl.Print) and
// cold requests derive fresh problems from a monotone counter, so two
// runs against equal clusters are directly comparable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustseq/internal/dsl"
	"trustseq/internal/gen"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "trustload:", err)
		os.Exit(1)
	}
}

// metrics mirrors benchtrend's Metrics schema (duplicated because both
// commands are package main; the JSON shape is the contract).
type metrics struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// trend mirrors benchtrend's Trend file schema.
type trend struct {
	Baseline map[string]metrics `json:"baseline"`
	Current  map[string]metrics `json:"current"`
}

// run is the testable body of main.
func run(ctx context.Context, args []string, errw io.Writer) error {
	fs := flag.NewFlagSet("trustload", flag.ContinueOnError)
	target := fs.String("target", "127.0.0.1:8086", "trustd address, any member of a ring")
	duration := fs.Duration("duration", 10*time.Second, "measurement window")
	rps := fs.Int("rps", 200, "target request rate (0 = closed loop)")
	conns := fs.Int("conns", 8, "concurrent connections/workers")
	mix := fs.Float64("mix", 0.9, "fraction of requests drawn from the hot pool")
	hot := fs.Int("hot", 16, "hot-pool size in distinct problems")
	seed := fs.Int64("seed", 1, "workload RNG seed")
	name := fs.String("name", "TrustloadAnalyze", "benchmark name for the Trend entry")
	out := fs.String("out", "", "write benchtrend Trend JSON here (empty = report only)")
	quiet := fs.Bool("quiet", false, "suppress the progress line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: trustload [flags] (no positional arguments)")
	}
	if *conns < 1 {
		*conns = 1
	}
	if *mix < 0 || *mix > 1 {
		return fmt.Errorf("-mix %v out of range [0, 1]", *mix)
	}

	pool, err := hotPool(*hot, *seed)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(errw, "trustload: %v against http://%s (%d conns, %d rps target, %.0f%% hot of %d)\n",
			*duration, *target, *conns, *rps, *mix*100, len(pool))
	}

	res := drive(ctx, driveConfig{
		target:   *target,
		duration: *duration,
		rps:      *rps,
		conns:    *conns,
		mix:      *mix,
		seed:     *seed,
		pool:     pool,
	})
	if res.sent == 0 {
		return fmt.Errorf("no requests completed against %s (first error: %s)", *target, res.firstError)
	}

	fmt.Fprint(errw, res.summary())
	if *out != "" {
		// Merge semantics: an existing Trend file keeps its other
		// entries, so one file accumulates a whole capacity matrix
		// (nodes=1, nodes=3, …) across successive runs.
		var t trend
		if data, err := os.ReadFile(*out); err == nil {
			_ = json.Unmarshal(data, &t)
		}
		if t.Current == nil {
			t.Current = map[string]metrics{}
		}
		t.Current[*name] = res.trendEntry()
		data, err := json.MarshalIndent(t, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(errw, "trustload: wrote %s (%s)\n", *out, *name)
		}
	}
	if res.errors > res.sent/10 {
		return fmt.Errorf("%d of %d requests failed", res.errors, res.sent)
	}
	return nil
}

// hotPool renders the fixed problem set that models a site's working
// set: distinct seeded problems, printed back to .exch source so the
// wire traffic is exactly what a real client would send.
func hotPool(n int, seed int64) ([]string, error) {
	if n < 1 {
		n = 1
	}
	pool := make([]string, n)
	for i := range pool {
		rng := rand.New(rand.NewSource(seed + int64(i)*0x9E3779B1))
		src, err := dsl.Print(gen.Random(rng, gen.Options{}))
		if err != nil {
			return nil, fmt.Errorf("rendering hot problem %d: %w", i, err)
		}
		pool[i] = src
	}
	return pool, nil
}

// coldProblem renders a never-repeating problem for the cache-miss
// share of the mix.
func coldProblem(seed int64, n uint64) (string, error) {
	rng := rand.New(rand.NewSource(seed ^ int64(n)*0x6C62272E07BB0142))
	return dsl.Print(gen.Random(rng, gen.Options{}))
}

type driveConfig struct {
	target   string
	duration time.Duration
	rps      int
	conns    int
	mix      float64
	seed     int64
	pool     []string
}

// result aggregates one run. Latencies are kept raw (one duration per
// completed request) so the percentiles are exact, not bucketed.
type result struct {
	sent, errors   int64
	hits, misses   int64 // from X-Trustd-Cache: hit+coalesced / miss
	proxied, owned int64 // from X-Trustd-Cluster
	elapsed        time.Duration
	latencies      []time.Duration
	firstError     string
}

// drive runs the workload: conns workers share a token bucket paced at
// rps (or free-run when rps is 0) until the window closes.
func drive(ctx context.Context, cfg driveConfig) *result {
	ctx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()

	var tokens chan struct{}
	if cfg.rps > 0 {
		tokens = make(chan struct{}, cfg.rps)
		interval := time.Second / time.Duration(cfg.rps)
		if interval <= 0 {
			interval = time.Microsecond
		}
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					select {
					case tokens <- struct{}{}:
					default: // bucket full; the servers are the bottleneck
					}
				}
			}
		}()
	}

	var coldSeq atomic.Uint64
	results := make([]*result, cfg.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*0x9E3779B97F4A7C))
			client := &http.Client{}
			r := &result{}
			results[w] = r
			for {
				if tokens != nil {
					select {
					case <-ctx.Done():
						return
					case <-tokens:
					}
				} else if ctx.Err() != nil {
					return
				}
				src := ""
				if rng.Float64() < cfg.mix {
					src = cfg.pool[rng.Intn(len(cfg.pool))]
				} else {
					var err error
					if src, err = coldProblem(cfg.seed, coldSeq.Add(1)); err != nil {
						r.errors++
						continue
					}
				}
				r.sent++
				t0 := time.Now()
				resp, err := post(ctx, client, cfg.target, src)
				if err != nil {
					if !strings.Contains(err.Error(), "context deadline") {
						r.errors++
						if r.firstError == "" {
							r.firstError = err.Error()
						}
					} else {
						r.sent--
					}
					continue
				}
				r.latencies = append(r.latencies, time.Since(t0))
				switch resp.cache {
				case "hit", "coalesced":
					r.hits++
				case "miss":
					r.misses++
				}
				switch resp.cluster {
				case "proxied":
					r.proxied++
				case "owner":
					r.owned++
				}
				if resp.status != http.StatusOK {
					r.errors++
					if r.firstError == "" {
						r.firstError = fmt.Sprintf("status %d", resp.status)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	total := &result{elapsed: time.Since(start)}
	for _, r := range results {
		if r == nil {
			continue
		}
		total.sent += r.sent
		total.errors += r.errors
		total.hits += r.hits
		total.misses += r.misses
		total.proxied += r.proxied
		total.owned += r.owned
		total.latencies = append(total.latencies, r.latencies...)
		if total.firstError == "" {
			total.firstError = r.firstError
		}
	}
	sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })
	return total
}

type response struct {
	status  int
	cache   string
	cluster string
}

func post(ctx context.Context, client *http.Client, target, src string) (*response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+target+"/v1/analyze", strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return &response{
		status:  resp.StatusCode,
		cache:   resp.Header.Get("X-Trustd-Cache"),
		cluster: resp.Header.Get("X-Trustd-Cluster"),
	}, nil
}

// percentile reads an exact order statistic from the sorted sample.
func (r *result) percentile(p float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	i := int(p * float64(len(r.latencies)-1))
	return r.latencies[i]
}

func (r *result) hitPct() float64 {
	classified := r.hits + r.misses
	if classified == 0 {
		return 0
	}
	return 100 * float64(r.hits) / float64(classified)
}

func (r *result) summary() string {
	var b strings.Builder
	ok := int64(len(r.latencies))
	fmt.Fprintf(&b, "trustload: %d requests in %.1fs (%.1f req/s), %d errors\n",
		r.sent, r.elapsed.Seconds(), float64(ok)/r.elapsed.Seconds(), r.errors)
	fmt.Fprintf(&b, "trustload: latency p50 %.2fms  p90 %.2fms  p99 %.2fms\n",
		ms(r.percentile(0.50)), ms(r.percentile(0.90)), ms(r.percentile(0.99)))
	fmt.Fprintf(&b, "trustload: cache %.1f%% warm (%d hit, %d miss); cluster %d owner / %d proxied\n",
		r.hitPct(), r.hits, r.misses, r.owned, r.proxied)
	if r.firstError != "" {
		fmt.Fprintf(&b, "trustload: first error: %s\n", r.firstError)
	}
	return b.String()
}

// trendEntry shapes the run for benchtrend: ns_per_op is the p50
// latency (the metric -compare gates on), everything else rides Extra.
func (r *result) trendEntry() metrics {
	return metrics{
		NsPerOp: float64(r.percentile(0.50).Nanoseconds()),
		Extra: map[string]float64{
			"p90_ms":  ms(r.percentile(0.90)),
			"p99_ms":  ms(r.percentile(0.99)),
			"req_s":   float64(len(r.latencies)) / r.elapsed.Seconds(),
			"hit_pct": r.hitPct(),
			"errors":  float64(r.errors),
		},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
