package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"

	"trustseq/internal/dsl"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/petri"
)

// Workload inputs. Every input is a pure function of the seed, so one
// seed replays byte-identical requests. The mixes are fixed by
// construction (set shares, permutation streams) rather than sampled,
// so each metric sees the same kind of traffic on every seed and only
// the specs themselves change with it.

// Tags keep each workload's random streams apart.
const (
	tagHot = iota + 1
	tagCold
	tagAudit
	tagPop
)

// seedFor derives an independent RNG seed from the workload seed and a
// path of integers (workload tag, connection, op index, ...).
func seedFor(seed int64, path ...int64) int64 {
	x := splitmix(uint64(seed))
	for _, p := range path {
		x = splitmix(x ^ splitmix(uint64(p)))
	}
	return int64(x)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// request is one HTTP request of a connection's stream.
type request struct {
	method, path string
	body         []byte
}

// render prints a problem as .exch source under the given name (the
// cache key covers the name, so distinct names are distinct specs).
func render(p *model.Problem, name string) ([]byte, error) {
	p.Name = name
	src, err := dsl.Print(p)
	if err != nil {
		return nil, fmt.Errorf("rendering %s: %w", name, err)
	}
	return []byte(src), nil
}

// permStream is one connection's walk over a pool of n entries:
// back-to-back seeded permutations, so every entry is requested exactly
// once per n requests and the share of large specs is the same on
// every seed.
type permStream struct {
	seed  int64
	n     int
	block int
	perm  []int
}

func newPermStream(seed int64, tag, conn int64, n int) *permStream {
	return &permStream{seed: seedFor(seed, tag, conn), n: n, block: -1}
}

// at returns the pool index of request i.
func (s *permStream) at(i int) int {
	if b := i / s.n; b != s.block {
		s.block, s.perm = b, rand.New(rand.NewSource(seedFor(s.seed, int64(b)))).Perm(s.n)
	}
	return s.perm[i%s.n]
}

// serve-hot: hotSpecs distinct specs, under the 512-entry cache. Most
// are ~400-byte gen.Random markets; hotLarge are gen.Population markets
// whose sources are spread evenly from ~10 KB to ~60 KB, so 3% of the
// requests are large and p99 falls among them while p50 stays among the
// small ones.
const (
	hotSpecs  = 450
	hotLarge  = 14
	hotLargeN = 50  // consumers of the smallest large spec (~10 KB)
	hotLargeM = 275 // consumers of the largest (~60 KB)
)

// hotPool renders the serve-hot specs.
func hotPool(seed int64) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seedFor(seed, tagHot)))
	pool := make([][]byte, hotSpecs)
	for i := range pool {
		var p *model.Problem
		if i < hotLarge {
			n := hotLargeN + (hotLargeM-hotLargeN)*i/(hotLarge-1)
			p = gen.Population(n, 0, model.Money(10+rng.Intn(90)))
		} else {
			p = gen.Random(rng, gen.Options{})
		}
		var err error
		if pool[i], err = render(p, fmt.Sprintf("hot-%d", i)); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// hotStreams are the serve-hot connections' request orders.
func hotStreams(seed int64) [conns]*permStream {
	var s [conns]*permStream
	for c := range s {
		s[c] = newPermStream(seed, tagHot, int64(c), hotSpecs)
	}
	return s
}

// hotRequest is request i of a serve-hot connection.
func hotRequest(pool [][]byte, s *permStream, i int) request {
	return request{http.MethodPost, "/v1/analyze", pool[s.at(i)]}
}

// serve-cold: never-repeating specs cut from gen.Random markets with
// direct-trust declarations (about a third feasible); every request
// simulates the plan, and one in crossEvery also asks for the
// crosscheck.
const (
	crossEvery = 16
	// crossProbe is the Petri state budget a crosscheck market must finish
	// within when it is generated: one eighth of trustd's budget, so no
	// crosscheck request can reach the budget in the service. One capped
	// run more or fewer in a window would swamp every metric.
	crossProbe = 1 << 14
	// coldMarkets is how many distinct markets a window stream cycles
	// through (a multiple of crossEvery). Request i is market i mod
	// coldMarkets under a name of its own, and the cache key covers the
	// name, so no request of a run repeats a key; the engines meet a
	// market again only coldMarkets requests later, and the inputs stay
	// a few megabytes however many requests a window completes.
	coldMarkets = 4096
	// coldSetupStream names the set-up stream; the window's streams are
	// the connections 0..conns-1, so set-up never repeats a window spec.
	coldSetupStream = conns
)

// coldSpec is one serve-cold request with the options it carries.
type coldSpec struct {
	req     request
	cross   bool
	simSeed int64
}

// coldStream is serve-cold stream s: its markets rendered once, each
// without its problem name.
type coldStream struct {
	s       int
	off     int
	markets [][]byte // source from the "{" after the problem name on
}

// newColdStream renders n markets of stream s. A market that will carry
// crosscheck=1 and is small enough for trustd to cross-check (larger
// ones are skipped whole) is redrawn until Petri coverability finishes
// inside crossProbe states.
func newColdStream(seed int64, s, n int) (*coldStream, error) {
	cs := &coldStream{s: s, off: int(uint64(seedFor(seed, tagCold, int64(s))) % crossEvery), markets: make([][]byte, n)}
	for k := range cs.markets {
		for try := int64(0); ; try++ {
			rng := rand.New(rand.NewSource(seedFor(seed, tagCold, int64(s), int64(k), try)))
			p := gen.Random(rng, gen.Options{
				Consumers:       1,
				Brokers:         1 + rng.Intn(2),
				Producers:       1 + rng.Intn(2),
				MaxPrice:        50,
				DirectTrustProb: 0.3,
			})
			if cs.cross(k) && len(p.Exchanges) <= trustdOptions().MaxSearchExchanges && !petriFinishes(p, crossProbe) {
				continue
			}
			src, err := render(p, "market")
			if err != nil {
				return nil, err
			}
			cs.markets[k] = src[bytes.IndexByte(src, '{'):]
			break
		}
	}
	return cs, nil
}

// cross reports whether request (or market) i carries crosscheck=1;
// since len(markets) is a multiple of crossEvery, a request and its
// market agree.
func (cs *coldStream) cross(i int) bool { return (i+cs.off)%crossEvery == 0 }

// at returns request i: market i mod len(markets), named after the
// stream and i, simulated with seed i.
func (cs *coldStream) at(i int) coldSpec {
	m := cs.markets[i%len(cs.markets)]
	body := make([]byte, 0, len(m)+32)
	body = append(fmt.Appendf(body, "problem cold-%d-%d ", cs.s, i), m...)
	path := fmt.Sprintf("/v1/analyze?simulate=1&seed=%d", i)
	if cs.cross(i) {
		path += "&crosscheck=1"
	}
	return coldSpec{req: request{http.MethodPost, path, body}, cross: cs.cross(i), simSeed: int64(i)}
}

// petriFinishes reports whether Petri coverability of p reaches a
// verdict within budget states.
func petriFinishes(p *model.Problem, budget int) bool {
	enc, err := petri.FromProblem(p)
	if err != nil {
		return false
	}
	return !enc.Completable(budget).Capped
}

// serve-audit: the set-up grows the daemon's log to leaves distinct
// gen.Pair analyses; the last pool of them stay resident in the cache
// and are the window's traffic. One op in consistencyEvery fetches a
// consistency proof from a seeded earlier log size instead of a
// membership proof.
type auditShape struct {
	leaves int // log size after set-up; not a power of two
	pool   int // resident specs requested in the window (the cache holds 512)
}

var auditDefault = auditShape{leaves: 12000, pool: 384}

const consistencyEvery = 8

// auditSpecs renders the set-up specs in append order.
func auditSpecs(seed int64, sh auditShape) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seedFor(seed, tagAudit)))
	specs := make([][]byte, sh.leaves)
	for i := range specs {
		var err error
		if specs[i], err = render(gen.Pair(model.Money(2+rng.Intn(1000))), fmt.Sprintf("audit-%d", i)); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// auditOp is one serve-audit op: the set-up spec to re-post and, for a
// consistency op, the earlier log size the proof starts from (0 for a
// membership op).
type auditOp struct {
	spec int
	from uint64
}

// auditStream is one connection's serve-audit op sequence.
type auditStream struct {
	seed int64
	sh   auditShape
	off  int
	perm *permStream
}

func newAuditStream(seed int64, conn int, sh auditShape) *auditStream {
	return &auditStream{
		seed: seedFor(seed, tagAudit, int64(conn)),
		sh:   sh,
		off:  int(uint64(seedFor(seed, tagAudit, int64(conn), -1)) % consistencyEvery),
		perm: newPermStream(seed, tagAudit, int64(conn), sh.pool),
	}
}

// auditStreams are the serve-audit connections' op sequences.
func auditStreams(seed int64, sh auditShape) [conns]*auditStream {
	var s [conns]*auditStream
	for c := range s {
		s[c] = newAuditStream(seed, c, sh)
	}
	return s
}

// at returns op i.
func (s *auditStream) at(i int) auditOp {
	op := auditOp{spec: s.sh.leaves - s.sh.pool + s.perm.at(i)}
	if (i+s.off)%consistencyEvery == 0 {
		op.from = 1 + uint64(seedFor(s.seed, int64(i)))%uint64(s.sh.leaves-1)
	}
	return op
}

// proofPath is the proof request of an op, after the analyze reply
// named the spec's digest.
func proofPath(op auditOp, digest string) string {
	if op.from > 0 {
		return fmt.Sprintf("/v1/proof/consistency?from=%d", op.from)
	}
	return "/v1/proof/" + digest
}

// population-sim: one sim.Run of a 10^4-consumer gen.Population plan
// per op. popDeadline is the escrow deadline the repository's population
// benchmarks use: the default 1000 ticks is shorter than a generated
// population's critical path.
const (
	popPrincipals = 10000
	popDeadline   = 20000
)

// popSeed is the simulation seed of op i (-1 is the warm-up run).
func popSeed(seed int64, i int) int64 { return seedFor(seed, tagPop, int64(i)) }
