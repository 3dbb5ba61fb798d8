package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"trustseq/internal/obs"
	"trustseq/internal/service"
)

// conns is the number of client connections on the serve-* workloads:
// one per core of the two-core machine the benchmark was built on.
const conns = 2

// setupReps is how many times a run sets up from scratch. setup_s is the
// median, so one set-up slowed by a neighbour on a shared machine does
// not move it.
const setupReps = 3

// trustdOptions are cmd/trustd's flag defaults: the daemon a user gets
// from `trustd` with no flags (telemetry on, 512 cached results, 64 base
// plans, GOMAXPROCS concurrent engine runs).
func trustdOptions() service.Options {
	return service.Options{
		CacheEntries:       512,
		BaseEntries:        64,
		MaxConcurrent:      runtime.GOMAXPROCS(0),
		RequestTimeout:     30 * time.Second,
		SweepTimeout:       2 * time.Minute,
		MaxSearchExchanges: 10,
		PetriBudget:        1 << 17,
		SearchWorkers:      1,
		Telemetry:          &obs.Telemetry{Metrics: obs.NewRegistry()},
		SlowLogMillis:      250,
		SlowLogEntries:     128,
	}
}

// daemon is one in-process trustd: the service's Handler behind a
// loopback listener, and one HTTP client per benchmark connection, each
// held to a single keep-alive connection.
type daemon struct {
	svc     *service.Service
	base    string
	clients []*http.Client
	cancel  context.CancelFunc
	served  chan error
}

// startDaemon starts a fresh service and opens every client connection,
// so neither the listener nor a dial falls inside a timed interval.
func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(trustdOptions())
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{svc: svc, base: "http://" + ln.Addr().String(), cancel: cancel, served: make(chan error, 1)}
	go func() { d.served <- service.Serve(ctx, ln, svc.Handler(), 10*time.Second) }()
	for c := 0; c < conns; c++ {
		d.clients = append(d.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
		r, err := d.do(c, http.MethodGet, "/healthz", nil)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d", r.status)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("daemon not ready: %w", err)
		}
	}
	return d, nil
}

// close drops the client connections, stops the server and waits for
// it to return.
func (d *daemon) close() error {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	d.cancel()
	return <-d.served
}

// reply is one HTTP response with its body read in full.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// do sends one request on connection conn and reads the whole reply.
func (d *daemon) do(conn int, method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	resp, err := d.clients[conn].Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("reading %s %s: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// setUp starts setupReps fresh daemons in turn and runs prepare on each
// with the clock running, after a forced GC so no earlier garbage is
// collected on set-up's time. It keeps the last daemon for the window
// and returns every set-up time.
func setUp(prepare func(*daemon) error) (*daemon, []float64, error) {
	var d *daemon
	times := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, err
			}
		}
		var err error
		if d, err = startDaemon(); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		start := time.Now()
		err = prepare(d)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			d.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return d, times, nil
}

// slices is how many equal parts a serve-* window is cut into. Each
// end-to-end metric is taken per slice and reported as the median over
// the slices, so a burst of load from a neighbour on a shared machine
// that spoils one slice does not move the result.
const slices = 5

// loop is one measured window.
type loop struct {
	lat      []time.Duration // one per op, every connection
	end      []time.Duration // when each op ended, from the window's start
	perConn  []int           // ops per connection
	failed   int64
	firstErr error
	elapsed  time.Duration // wall time of the window
	width    time.Duration // slice width
	parts    []part        // per-slice samples; nil for an unsliced window
	// An unsliced window's CPU and heap peak, taken by its owner.
	cpu      time.Duration
	peakHeap uint64
}

// part is what the sampler saw in one slice of a window.
type part struct {
	cpu      time.Duration
	peakHeap uint64
}

// opFunc runs op i of connection conn and returns its latency; it times
// itself, so a correctness check after the reply stays out of the sample.
type opFunc func(conn, i int) (time.Duration, error)

// closedLoop runs op back to back on every connection until the window
// closes: each connection sends its next request only after the reply
// to the previous one, as trustd's callers do. limit, when non-nil,
// caps the ops of each connection (a replay).
func closedLoop(window time.Duration, limit []int, op opFunc) *loop {
	type connLoop struct {
		lat, end []time.Duration
		failed   int64
		err      error
	}
	per := make([]connLoop, conns)
	start := time.Now()
	smp := startSampler(start, window/slices)
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &per[c]
			cl.lat = make([]time.Duration, 0, 1<<14)
			cl.end = make([]time.Duration, 0, 1<<14)
			for i := 0; time.Now().Before(deadline) && (limit == nil || i < limit[c]); i++ {
				lat, err := op(c, i)
				cl.lat = append(cl.lat, lat)
				cl.end = append(cl.end, time.Since(start))
				if err != nil {
					cl.failed++
					if cl.err == nil {
						cl.err = fmt.Errorf("connection %d op %d: %w", c, i, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	l := &loop{elapsed: time.Since(start), width: window / slices, parts: smp.stop()}
	for _, cl := range per {
		l.lat = append(l.lat, cl.lat...)
		l.end = append(l.end, cl.end...)
		l.perConn = append(l.perConn, len(cl.lat))
		l.failed += cl.failed
		if l.firstErr == nil {
			l.firstErr = cl.err
		}
	}
	return l
}

// endToEnd turns a window and the set-up times into the result line.
// A sliced window reports, for each metric, the median over its slices;
// an op belongs to the slice it ended in, and the last slice also takes
// the ops still in flight when the window closed.
func endToEnd(setups []float64, l *loop) result {
	r := result{
		Correct:   l.failed == 0,
		Attempted: int64(len(l.lat)),
		Failed:    l.failed,
		Metrics:   map[string]metric{"setup_s": {median(setups), "s"}},
	}
	type window struct {
		lat      []time.Duration
		secs     float64
		cpu      time.Duration
		peakHeap uint64
	}
	var ws []window
	if l.parts == nil {
		ws = []window{{lat: l.lat, secs: l.elapsed.Seconds(), cpu: l.cpu, peakHeap: l.peakHeap}}
	} else {
		ws = make([]window, len(l.parts))
		for k, p := range l.parts {
			ws[k].cpu, ws[k].peakHeap, ws[k].secs = p.cpu, p.peakHeap, l.width.Seconds()
		}
		last := len(ws) - 1
		ws[last].secs = (l.elapsed - time.Duration(last)*l.width).Seconds()
		for i, end := range l.end {
			k := min(int(end/l.width), last)
			ws[k].lat = append(ws[k].lat, l.lat[i])
		}
	}
	var ops, p50, p99, cpu, heap []float64
	for _, w := range ws {
		n := float64(len(w.lat))
		if n == 0 {
			continue
		}
		ops = append(ops, n/w.secs)
		p50 = append(p50, ms(percentile(w.lat, 0.50)))
		p99 = append(p99, ms(percentile(w.lat, 0.99)))
		cpu = append(cpu, ms(w.cpu)/n)
		heap = append(heap, float64(w.peakHeap)/(1<<20))
	}
	r.Metrics["ops_per_s"] = metric{median(ops), "1/s"}
	r.Metrics["p50_ms"] = metric{median(p50), "ms"}
	r.Metrics["p99_ms"] = metric{median(p99), "ms"}
	r.Metrics["cpu_ms_per_op"] = metric{median(cpu), "ms"}
	r.Metrics["peak_heap_mb"] = metric{median(heap), "MB"}
	return r
}

// windowInfo is the detail line's account of a window.
func windowInfo(setups []float64, l *loop) map[string]any {
	n := len(l.lat)
	info := map[string]any{
		"setup_runs_s":    setups,
		"ops":             n,
		"ops_per_conn":    l.perConn,
		"window_s":        l.elapsed.Seconds(),
		"latency_samples": n,
	}
	if l.parts != nil {
		// Each slice holds about n/slices samples, 1% of them above its p99.
		info["slices"] = len(l.parts)
		info["samples_above_p99_per_slice"] = n/len(l.parts) - int(math.Ceil(0.99*float64(n/len(l.parts))))
	} else {
		info["samples_above_p99"] = n - int(math.Ceil(0.99*float64(n)))
	}
	if l.firstErr != nil {
		info["first_error"] = l.firstErr.Error()
	}
	return info
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank q-quantile of the samples.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+sys CPU so far: the load generator's
// goroutines included, since clients and daemon share the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampler watches a window slice by slice: it reads the Go heap's
// object bytes (live plus not yet swept) every millisecond, often enough
// to catch each GC cycle near its high-water mark at well under a
// microsecond a read, and the process CPU at each slice's end.
type sampler struct {
	quit  chan struct{}
	parts chan []part
}

// startSampler starts sampling slices of the given width from start; a
// zero width makes the whole run one slice.
func startSampler(start time.Time, width time.Duration) *sampler {
	smp := &sampler{quit: make(chan struct{}), parts: make(chan []part)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var parts []part
		var cur part
		cpu0 := cpuTime()
		next := start.Add(width)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			cur.peakHeap = max(cur.peakHeap, s[0].Value.Uint64())
			select {
			case <-smp.quit:
				cur.cpu = cpuTime() - cpu0
				smp.parts <- append(parts, cur)
				return
			case now := <-tick.C:
				// The last slice stays open for the ops still in flight
				// when the window closes.
				if width > 0 && !now.Before(next) && len(parts) < slices-1 {
					cpu := cpuTime()
					cur.cpu = cpu - cpu0
					parts, cur, cpu0 = append(parts, cur), part{}, cpu
					next = next.Add(width)
				}
			}
		}
	}()
	return smp
}

// stop ends the sampler and returns its slices.
func (smp *sampler) stop() []part {
	close(smp.quit)
	return <-smp.parts
}
