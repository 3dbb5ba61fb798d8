package search

import (
	"fmt"
	"sync"
	"sync/atomic"

	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/safety"
)

// memoShardCount is a power of two; shards keep lock contention on the
// shared memo table low without per-state channel traffic.
const memoShardCount = 32

// sharedMemo is the concurrent memo table of the root fan-out: the same
// injective keys as the serial search (packed fingerprints with a
// string fallback), sharded by a cheap mix of the key.
type sharedMemo struct {
	shards [memoShardCount]memoShard
	stats  bool
}

type memoShard struct {
	mu  sync.Mutex
	m64 fpTable
	str map[string]bool
	// Telemetry tallies, guarded by mu and counted only when the memo
	// was built with stats on (the lock is already held on every path
	// that touches them, so the cost is two predictable increments).
	hits, misses int64
}

func newSharedMemo(stats bool) *sharedMemo {
	return &sharedMemo{stats: stats}
}

func (t *sharedMemo) shard(k memoKey) *memoShard {
	var h uint64
	if k.packed {
		h = k.fp[0] ^ k.fp[1]*0x9e3779b97f4a7c15
	} else {
		for i := 0; i < len(k.str); i++ {
			h = (h ^ uint64(k.str[i])) * 0x100000001b3
		}
	}
	// Fold the high bits in so shards spread even when only low bits vary.
	h ^= h >> 17
	return &t.shards[h%memoShardCount]
}

// lookup returns the memoized verdict, marking the state in-progress
// (false) when absent — the same cycle cut as the serial search. An
// in-progress entry read by another worker prunes that worker's subtree;
// the owner still evaluates the state fully and propagates a positive
// verdict to its own root, so the disjunction over root moves is exact
// (see TestParallelMatchesSerial).
func (t *sharedMemo) lookup(k memoKey) (val, seen bool) {
	s := t.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if k.packed {
		v, ok := s.m64.lookupOrMark(k.fp)
		if t.stats {
			if ok {
				s.hits++
			} else {
				s.misses++
			}
		}
		return v, ok
	}
	if s.str == nil {
		s.str = make(map[string]bool)
	}
	if v, ok := s.str[k.str]; ok {
		if t.stats {
			s.hits++
		}
		return v, true
	}
	if t.stats {
		s.misses++
	}
	s.str[k.str] = false
	return false, false
}

// flushStats records the per-shard memo tallies against the registry —
// one hit/miss counter pair per shard plus the aggregates, the shape
// the ISSUE's "memo hits/misses per shard" telemetry asks for.
func (t *sharedMemo) flushStats(reg *obs.Registry) {
	var hits, misses int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		h, m, entries := s.hits, s.misses, s.m64.size()+len(s.str)
		s.mu.Unlock()
		hits += h
		misses += m
		reg.Counter(fmt.Sprintf("search.memo.shard%02d.hits", i)).Add(h)
		reg.Counter(fmt.Sprintf("search.memo.shard%02d.misses", i)).Add(m)
		reg.Counter(fmt.Sprintf("search.memo.shard%02d.entries", i)).Add(int64(entries))
	}
	reg.Counter("search.memo.hits").Add(hits)
	reg.Counter("search.memo.misses").Add(misses)
}

func (t *sharedMemo) store(k memoKey, v bool) {
	s := t.shard(k)
	s.mu.Lock()
	if k.packed {
		s.m64.set(k.fp, v)
	} else {
		s.str[k.str] = v
	}
	s.mu.Unlock()
}

func (t *sharedMemo) size() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.m64.size() + len(s.str)
		s.mu.Unlock()
	}
	return n
}

// feasibleFanOut is the workers > 1 branch of FeasibleObs: the root's
// safety and completion checks run serially, then its moves are fanned
// out to a bounded pool of searchers sharing one sharded memo. The
// verdict always equals the serial one (the memo keys are injective and
// every in-progress prune is backed by a full evaluation elsewhere).
func feasibleFanOut(p *model.Compiled, mode Mode, workers int, forceString bool, tel *obs.Telemetry) (Verdict, error) {
	obsOn := tel.Enabled()
	var span obs.Span
	if obsOn {
		span = tel.Trace().StartSpan("search.feasible_parallel",
			obs.Str("mode", mode.String()),
			obs.Int("exchanges", len(p.Exchanges)),
			obs.Int("workers", workers))
	}
	root := safety.NewExec(p)
	if err := root.ForceCompletionsAll(); err != nil {
		return Verdict{}, err
	}

	memo := newSharedMemo(obsOn)
	// stop doubles as the verdict: only a worker that found a safe
	// completion sets it.
	var stop atomic.Bool
	probe := &searcher{problem: p, mode: mode, forceString: forceString}

	// finish flushes the telemetry (per-shard memo tallies, span end)
	// on every exit path.
	finish := func(v Verdict) (Verdict, error) {
		if obsOn {
			memo.flushStats(tel.Reg())
			tel.Reg().Counter("search.nodes").Add(int64(v.Explored))
			tel.Reg().Histogram("search.explored", obs.CountBuckets()).Observe(float64(v.Explored))
			span.End(obs.Bool("feasible", v.Feasible), obs.Int("explored", v.Explored))
		}
		return v, nil
	}

	rootKey := probe.key(root)
	memo.lookup(rootKey) // marks the root in-progress
	if !probe.safe(root) {
		return finish(Verdict{Explored: memo.size()})
	}
	if safety.Completed(root) {
		memo.store(rootKey, true)
		return finish(Verdict{Feasible: true, Explored: memo.size()})
	}
	rootMoves := appendMoves(nil, root, p)
	if len(rootMoves) == 0 {
		return finish(Verdict{Explored: memo.size()})
	}
	if workers > len(rootMoves) {
		workers = len(rootMoves)
	}

	var (
		wg      sync.WaitGroup
		winOnce sync.Once
		witness []Move
	)
	jobs := make(chan Move, len(rootMoves))
	for _, mv := range rootMoves {
		jobs <- mv
	}
	close(jobs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := &searcher{
				problem: p, mode: mode, forceString: forceString,
				shared: memo, stop: &stop, worker: w,
				obsOn: obsOn, span: span,
			}
			for mv := range jobs {
				if stop.Load() {
					return
				}
				if s.expand(root, mv, nil, 0) {
					// A worker that reached the verdict through another
					// worker's memo entry holds no witness of its own;
					// the worker that completed the state does.
					if s.witness != nil {
						winOnce.Do(func() { witness = s.witness })
					}
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if stop.Load() {
		memo.store(rootKey, true)
		return finish(Verdict{Feasible: true, Sequence: witness, Explored: memo.size()})
	}
	return finish(Verdict{Explored: memo.size()})
}
