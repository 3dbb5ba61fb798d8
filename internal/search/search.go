package search

import (
	"fmt"

	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/safety"
)

// obsBatch is how many node expansions accumulate between trace events:
// per-node events would swamp the sink on exponential searches, so the
// search emits one "search.batch" record per obsBatch visited states.
const obsBatch = 4096

// Mode selects the per-prefix safety predicate.
type Mode int

// The supported modes.
const (
	ModeAssets Mode = iota + 1
	ModeStrong
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAssets:
		return "assets"
	case ModeStrong:
		return "strong"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Move is one searchable step.
type Move struct {
	Deposit  int // exchange index; -1 if this is a withdrawal
	Withdraw int // exchange index; -1 if this is a deposit
	Post     int // indemnity offer index; -1 otherwise
}

// String renders the move.
func (m Move) String() string {
	switch {
	case m.Deposit >= 0:
		return fmt.Sprintf("deposit(e%d)", m.Deposit)
	case m.Withdraw >= 0:
		return fmt.Sprintf("withdraw(e%d)", m.Withdraw)
	case m.Post >= 0:
		return fmt.Sprintf("post(i%d)", m.Post)
	default:
		return "invalid move"
	}
}

// Verdict is the search outcome.
type Verdict struct {
	Feasible bool
	Sequence []Move // a witness when feasible
	Explored int    // distinct states visited
}

// Feasible compiles the problem and searches it without telemetry.
// Callers that hold a compiled problem call FeasibleObs.
func Feasible(p *model.Problem, mode Mode) (Verdict, error) {
	c, err := model.Compile(p)
	if err != nil {
		return Verdict{}, err
	}
	return FeasibleObs(c, mode, nil)
}

// FeasibleObs searches for a safe completing execution of the problem
// under a "search.feasible" span. The search is one deterministic loop:
// the verdict, the witness and the explored count depend only on the
// problem and the mode. Telemetry adds batched node-expansion events
// and memo counters; nil telemetry costs one boolean check per node.
func FeasibleObs(p *model.Compiled, mode Mode, tel *obs.Telemetry) (Verdict, error) {
	return feasibleConfigured(p, mode, false, tel)
}

// feasibleConfigured is the test seam behind both entry points:
// forceStringKeys disables the packed-fingerprint memo so the property
// tests can confirm the key representation never changes a verdict.
func feasibleConfigured(p *model.Compiled, mode Mode, forceStringKeys bool, tel *obs.Telemetry) (Verdict, error) {
	s := &searcher{
		problem:     p,
		mode:        mode,
		forceString: forceStringKeys,
		obsOn:       tel.Enabled(),
	}
	if s.obsOn {
		s.span = tel.Trace().StartSpan("search.feasible",
			obs.Str("mode", mode.String()),
			obs.Int("exchanges", len(p.Exchanges)))
	}
	exec := safety.NewExec(p)
	if err := exec.ForceCompletionsAll(); err != nil {
		return Verdict{}, err
	}
	found := s.dfs(exec, nil, 0)
	explored := s.memo64.size() + len(s.memoStr)
	if s.obsOn {
		reg := tel.Reg()
		reg.Counter("search.nodes").Add(s.visited)
		reg.Counter("search.memo.hits").Add(s.hits)
		reg.Counter("search.memo.misses").Add(s.misses)
		reg.Histogram("search.explored", obs.CountBuckets()).Observe(float64(explored))
		s.span.End(
			obs.Bool("feasible", found),
			obs.Int("explored", explored),
			obs.Int64("memo_hits", s.hits),
			obs.Int64("memo_misses", s.misses))
	}
	return Verdict{Feasible: found, Sequence: s.witness, Explored: explored}, nil
}

// searcher runs the memoized DFS. The memo is keyed by the packed
// 128-bit fingerprint when the problem fits (the common case — two bits
// per exchange, one per indemnity), falling back to the string
// fingerprint for oversized problems. Both keys are injective, so the
// representation cannot change a verdict; the packed form lives in a
// flat open-addressing table (fpTable) with no per-state allocation.
type searcher struct {
	problem     *model.Compiled
	mode        Mode
	forceString bool
	memo64      fpTable
	memoStr     map[string]bool
	witness     []Move
	moveBufs    [][]Move // per-depth scratch, reused across siblings

	// Telemetry (obsOn caches tel.Enabled() so the per-node cost of a
	// disabled tracer is one boolean test).
	obsOn        bool
	span         obs.Span
	visited      int64
	hits, misses int64
}

// memoKey identifies one memoized state: the packed fingerprint when the
// problem fits in 128 bits, the string fingerprint otherwise.
type memoKey struct {
	packed bool
	fp     [2]uint64
	str    string
}

func (s *searcher) key(exec *safety.Exec) memoKey {
	if !s.forceString {
		if fp, ok := exec.Fingerprint128(); ok {
			return memoKey{packed: true, fp: fp}
		}
	}
	return memoKey{str: exec.Fingerprint()}
}

// memoLookup returns the memoized verdict for the key, inserting the
// in-progress value `false` when absent (cutting cycles).
func (s *searcher) memoLookup(k memoKey) (val, seen bool) {
	if k.packed {
		return s.memo64.lookupOrMark(k.fp)
	}
	if s.memoStr == nil {
		s.memoStr = make(map[string]bool)
	}
	if v, ok := s.memoStr[k.str]; ok {
		return v, true
	}
	s.memoStr[k.str] = false
	return false, false
}

func (s *searcher) memoStore(k memoKey, v bool) {
	if k.packed {
		s.memo64.set(k.fp, v)
	} else {
		s.memoStr[k.str] = v
	}
}

func (s *searcher) safe(exec *safety.Exec) bool {
	for _, pa := range s.problem.Parties {
		if pa.IsTrusted() {
			continue
		}
		ok := false
		switch s.mode {
		case ModeStrong:
			ok = safety.SafeFor(exec, pa.ID)
		default:
			ok = safety.AssetSafe(exec, pa.ID)
		}
		if !ok {
			return false
		}
	}
	return true
}

// dfs explores from exec (already completion-saturated). Returns true if
// a safe completing continuation exists; the witness is recorded. depth
// selects the reusable move buffer for this level.
func (s *searcher) dfs(exec *safety.Exec, trail []Move, depth int) bool {
	key := s.key(exec)
	if done, seen := s.memoLookup(key); seen {
		if s.obsOn {
			s.hits++
		}
		return done
	}
	if s.obsOn {
		s.misses++
		s.visited++
		if s.visited%obsBatch == 0 {
			s.span.Event("search.batch",
				obs.Int64("nodes", s.visited),
				obs.Int64("memo_hits", s.hits),
				obs.Int64("memo_misses", s.misses),
				obs.Int("depth", depth))
		}
	}
	// memoLookup marked the state in-progress (false) to cut cycles;
	// overwrite on success.

	if !s.safe(exec) {
		return false
	}
	if safety.Completed(exec) {
		s.memoStore(key, true)
		s.witness = append([]Move(nil), trail...)
		return true
	}

	for _, mv := range s.moves(exec, depth) {
		// A move that does not apply leads nowhere.
		next := exec.ClonePooled()
		ok := applyMove(next, mv) == nil &&
			next.ForceCompletionsAll() == nil &&
			s.dfs(next, append(trail, mv), depth+1)
		safety.Release(next)
		if ok {
			s.memoStore(key, true)
			return true
		}
	}
	return false
}

// moves enumerates the searchable steps from exec into the depth-indexed
// scratch buffer. Each DFS level owns one buffer, reused across every
// sibling expansion at that level — the enumeration runs once per visited
// state, so buffer reuse removes the dominant slice churn of the search.
func (s *searcher) moves(exec *safety.Exec, depth int) []Move {
	for len(s.moveBufs) <= depth {
		s.moveBufs = append(s.moveBufs, nil)
	}
	buf := s.moveBufs[depth][:0]
	for ei := range s.problem.Exchanges {
		if !exec.DepositAttempted(ei) && exec.CanFund(ei) {
			buf = append(buf, Move{Deposit: ei, Withdraw: -1, Post: -1})
		}
		if exec.CanWithdraw(ei) {
			buf = append(buf, Move{Deposit: -1, Withdraw: ei, Post: -1})
		}
	}
	for oi := range s.problem.Indemnities {
		if !exec.Posted(oi) {
			buf = append(buf, Move{Deposit: -1, Withdraw: -1, Post: oi})
		}
	}
	s.moveBufs[depth] = buf
	return buf
}

func applyMove(exec *safety.Exec, mv Move) error {
	switch {
	case mv.Deposit >= 0:
		return exec.CompleteDeposit(mv.Deposit)
	case mv.Withdraw >= 0:
		return exec.EarlyWithdraw(mv.Withdraw)
	case mv.Post >= 0:
		return exec.Post(mv.Post)
	default:
		return fmt.Errorf("search: invalid move")
	}
}
