// Command trustd is the resident protocol-synthesis daemon: a
// stdlib-only HTTP service that analyses commercial-exchange problems
// (.exch or JSON spec) and returns the feasibility verdict, reduction
// trace, execution sequence, indemnity proposal, exhaustive-search and
// Petri cross-checks, and optionally a seeded simulation — serving
// repeated and concurrent-duplicate requests from a content-addressed
// result cache instead of re-running the engines. See internal/service
// for the request lifecycle and ARCHITECTURE.md for the dataflow.
//
// Usage:
//
//	trustd [flags]
//
//	-addr ADDR          listen address (default :8086)
//	-cache N            result-cache capacity in entries (default 512)
//	-bases N            base-plan cache capacity for incremental edits (default 64)
//	-concurrency N      max concurrent engine runs (default GOMAXPROCS)
//	-timeout D          per-request analysis timeout (default 30s)
//	-sweep-timeout D    per-request sweep timeout (default 2m)
//	-drain D            shutdown drain budget after SIGINT/SIGTERM (default 10s)
//	-search-workers N   workers per exhaustive cross-check search (default 1)
//	-petri-budget N     coverability state budget (default 131072)
//	-max-search N       skip exhaustive cross-checks above N exchanges (default 10)
//	-slowlog-ms N       slow-request threshold in ms; negative retains every
//	                    request's span tree (default 250)
//	-slowlog-entries N  recent-request table and slow-trace ring capacity (default 128)
//	-pprof ADDR         serve net/http/pprof on a second, loopback-only listener
//	                    (e.g. 127.0.0.1:6060; empty = off)
//	-quiet              suppress the startup line
//
// Cluster mode (see ARCHITECTURE.md, "Cluster topology"):
//
//	-cluster            join/form a cluster even with no seed peers
//	-peers A,B,...      seed addresses of other members; implies -cluster
//	-advertise ADDR     address peers use to reach this node (default: the
//	                    bound address, host 127.0.0.1 when unspecified);
//	                    implies -cluster
//	-gossip-interval D  gossip round period (default 500ms)
//	-suspect-after D    silence before a member is suspect (default 4×interval)
//	-dead-after D       silence before a member leaves the ring (default
//	                    5×suspect-after)
//	-vnodes N           virtual nodes per member on the hash ring (default 64)
//
// In cluster mode each node gossips membership with its peers over the
// service listener (/cluster/gossip), routes analyze requests to the
// digest's ring owner (relaying the owner's log anchor, so a proxied
// result is proven against the owner), and partitions /v1/sweep across
// live members. Every node serves the full API; point clients, or a
// plain balancer, at any of them.
//
// SIGINT/SIGTERM starts a graceful drain: the listener stops accepting,
// in-flight requests get up to -drain to finish, then the process
// exits. The pprof listener (when enabled) is independent of the main
// one and refuses non-loopback bind addresses — profiles expose source
// paths and heap contents, so they never ride the service port.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"trustseq/internal/cluster"
	"trustseq/internal/obs"
	"trustseq/internal/service"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "trustd:", err)
		os.Exit(1)
	}
}

// run is the testable body of main: it owns flag parsing, the signal
// contract and the server lifecycle, and reports the bound address on
// errw so scripts (and the CI smoke job) can wait for readiness.
func run(ctx context.Context, args []string, errw io.Writer) error {
	fs := flag.NewFlagSet("trustd", flag.ContinueOnError)
	addr := fs.String("addr", ":8086", "listen address")
	cacheEntries := fs.Int("cache", 512, "result-cache capacity in entries")
	baseEntries := fs.Int("bases", 64, "base-plan cache capacity for incremental edits")
	concurrency := fs.Int("concurrency", 0, "max concurrent engine runs (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request analysis timeout")
	sweepTimeout := fs.Duration("sweep-timeout", 2*time.Minute, "per-request sweep timeout")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain budget")
	searchWorkers := fs.Int("search-workers", 1, "workers per exhaustive cross-check search")
	petriBudget := fs.Int("petri-budget", 1<<17, "coverability state budget")
	maxSearch := fs.Int("max-search", 10, "skip exhaustive cross-checks above this many exchanges")
	slowlogMS := fs.Int("slowlog-ms", 250, "slow-request threshold in milliseconds (negative retains every request)")
	slowlogEntries := fs.Int("slowlog-entries", 128, "recent-request table and slow-trace ring capacity")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty = off)")
	quiet := fs.Bool("quiet", false, "suppress the startup line")
	clusterMode := fs.Bool("cluster", false, "join/form a cluster even with no seed peers")
	peers := fs.String("peers", "", "comma-separated seed addresses of other cluster members (implies -cluster)")
	advertise := fs.String("advertise", "", "address peers use to reach this node (implies -cluster; default: the bound address)")
	gossipInterval := fs.Duration("gossip-interval", 500*time.Millisecond, "gossip round period")
	suspectAfter := fs.Duration("suspect-after", 0, "silence before a member is suspect (0 = 4×gossip-interval)")
	deadAfter := fs.Duration("dead-after", 0, "silence before a member leaves the ring (0 = 5×suspect-after)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per member on the hash ring (0 = 64)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: trustd [flags] (no positional arguments)")
	}

	if *pprofAddr != "" {
		pln, err := listenLoopback(*pprofAddr)
		if err != nil {
			return err
		}
		psrv := &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
		go psrv.Serve(pln)
		defer psrv.Close()
		if !*quiet {
			fmt.Fprintf(errw, "trustd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		}
	}

	// The listener binds before the cluster node exists: the advertised
	// identity defaults to the actually-bound address (with an
	// unspecified host rewritten to loopback so peers can dial it).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	tel := &obs.Telemetry{Metrics: obs.NewRegistry()}
	var node *cluster.Node
	if *clusterMode || *peers != "" || *advertise != "" {
		self := *advertise
		if self == "" {
			if self, err = advertisableAddr(ln.Addr().String()); err != nil {
				ln.Close()
				return err
			}
		}
		node, err = cluster.NewNode(cluster.Config{
			Self:         self,
			Peers:        splitPeers(*peers),
			VNodes:       *vnodes,
			Interval:     *gossipInterval,
			SuspectAfter: *suspectAfter,
			DeadAfter:    *deadAfter,
			Telemetry:    tel,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(errw, "trustd: cluster: "+format+"\n", args...)
			},
		})
		if err != nil {
			ln.Close()
			return err
		}
	}

	svc := service.New(service.Options{
		CacheEntries:       *cacheEntries,
		BaseEntries:        *baseEntries,
		MaxConcurrent:      *concurrency,
		RequestTimeout:     *timeout,
		SweepTimeout:       *sweepTimeout,
		MaxSearchExchanges: *maxSearch,
		PetriBudget:        *petriBudget,
		SearchWorkers:      *searchWorkers,
		Telemetry:          tel,
		SlowLogMillis:      *slowlogMS,
		SlowLogEntries:     *slowlogEntries,
		Cluster:            node,
	})

	if !*quiet {
		workers := *concurrency
		if workers < 1 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(errw, "trustd: serving on http://%s (cache %d entries, %d concurrent runs)\n",
			ln.Addr(), *cacheEntries, workers)
		if node != nil {
			fmt.Fprintf(errw, "trustd: cluster member %s (%d seed peers, gossip every %v)\n",
				node.Self(), len(splitPeers(*peers)), *gossipInterval)
		}
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	if node != nil {
		go node.Run(ctx)
	}
	return service.Serve(ctx, ln, svc.Handler(), *drain)
}

// splitPeers parses the -peers list, dropping empties so trailing
// commas are harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// advertisableAddr turns the bound listen address into one peers can
// dial: an unspecified host (the ":8086" default binds every interface)
// is rewritten to loopback, which is right for single-machine clusters
// and the CI ring; multi-host deployments pass -advertise explicitly.
func advertisableAddr(bound string) (string, error) {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return "", fmt.Errorf("advertise address from %q: %w", bound, err)
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port), nil
}

// listenLoopback binds addr after verifying the host is loopback: the
// profiling endpoints expose binary internals and must never be
// reachable off-box.
func listenLoopback(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("-pprof %q: %w", addr, err)
	}
	if host != "localhost" {
		ip := net.ParseIP(host)
		if ip == nil || !ip.IsLoopback() {
			return nil, fmt.Errorf("-pprof %q: profiling is loopback-only; bind 127.0.0.1, ::1 or localhost", addr)
		}
	}
	return net.Listen("tcp", addr)
}

// pprofMux mounts the net/http/pprof handlers on a private mux, so the
// profiler never rides the package-global DefaultServeMux (and the
// service mux never grows debug routes by side effect).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
