package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trustseq/internal/obs"
)

// State is a member's locally derived liveness.
type State int

// The liveness states, ordered by badness.
const (
	StateAlive State = iota
	StateSuspect
	StateDead
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config parameterizes a Node. Self is required; everything else has a
// production default.
type Config struct {
	// Self is this node's advertised address (host:port of its HTTP
	// listener) — its identity on the ring and in the member table.
	Self string
	// Peers seeds the membership: addresses tried for gossip exchange
	// until the table fills in. Self is filtered out.
	Peers []string
	// VNodes is the virtual-node count per member (DefaultVNodes if <=0).
	VNodes int
	// Interval is the gossip round period. Default 500ms.
	Interval time.Duration
	// SuspectAfter is the silence age after which a member is suspect.
	// Default 4*Interval.
	SuspectAfter time.Duration
	// DeadAfter is the silence age after which a member is dead and
	// leaves the ring. Default 5*SuspectAfter.
	DeadAfter time.Duration
	// Telemetry receives gossip round counters, the round-latency
	// histogram and membership gauges. Nil disables.
	Telemetry *obs.Telemetry
	// Logf, when non-nil, receives one line per membership transition
	// and gossip anomaly — the membership trace the CI smoke job
	// captures. It must be safe for concurrent use (log.Printf is).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 4 * c.Interval
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 5 * c.SuspectAfter
	}
	return c
}

// member is one entry of the table. lastAlive is this node's best
// evidence of the member being up (direct contact, or transitive age
// carried by gossip); state is derived from its age and cached so
// transitions can be logged exactly once.
type member struct {
	addr        string
	incarnation uint64
	lastAlive   time.Time
	state       State
}

// memberInfo is the wire form of one member entry. AgeMS is the
// sender's evidence age — milliseconds since the sender last heard the
// member was alive — which gossips better than a timestamp (no clock
// agreement needed; ages only grow while a node is silent).
type memberInfo struct {
	Addr        string `json:"addr"`
	Incarnation uint64 `json:"incarnation"`
	State       string `json:"state"`
	AgeMS       int64  `json:"age_ms"`
}

// syncMessage is one push-pull payload: the sender's full member table.
// The response to a gossip POST is the receiver's own syncMessage, so
// one round exchanges both views. Unknown fields are ignored, so an
// older peer that still sends a "fills" array merges membership as
// usual.
type syncMessage struct {
	From        string       `json:"from"`
	Incarnation uint64       `json:"incarnation"`
	RingVersion uint64       `json:"ring_version"`
	Members     []memberInfo `json:"members"`
}

// Node is the gossip runtime of one cluster member. Create with
// NewNode, mount Handler on the serving mux, and run Run in a
// goroutine; the ring is then readable at any time via Owner/Ring.
type Node struct {
	cfg Config

	ring atomic.Pointer[Ring]

	mu      sync.Mutex
	members map[string]*member
	self    *member
	rng     *rand.Rand

	client *http.Client

	rounds, roundFailures *obs.Counter
	roundSeconds          *obs.Histogram
	liveGauge, ringGauge  *obs.Gauge
	lastRoundMS           atomic.Int64
}

// NewNode constructs a Node. The advertised self address must be
// non-empty; it is how peers will reach this node's HTTP listener.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self (advertised address) is required")
	}
	cfg = cfg.withDefaults()
	now := time.Now()
	self := &member{
		addr: cfg.Self,
		// Wall-clock incarnations make a restarted process supersede its
		// previous life's entry without persisted state.
		incarnation: uint64(now.UnixNano()),
		lastAlive:   now,
	}
	n := &Node{
		cfg:     cfg,
		members: map[string]*member{cfg.Self: self},
		self:    self,
		rng:     rand.New(rand.NewSource(now.UnixNano())),
		client: &http.Client{
			Timeout: maxDuration(2*time.Second, 3*cfg.Interval),
		},
	}
	reg := cfg.Telemetry.Reg()
	n.rounds = reg.Counter("cluster.gossip.rounds")
	n.roundFailures = reg.Counter("cluster.gossip.failures")
	n.roundSeconds = reg.Histogram("cluster.gossip.round_seconds", obs.DurationBuckets())
	n.liveGauge = reg.Gauge("cluster.members.live")
	n.ringGauge = reg.Gauge("cluster.ring.members")
	n.rebuildRing()
	return n, nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// Self is the advertised address.
func (n *Node) Self() string { return n.cfg.Self }

// Ring is the current ring (never nil after NewNode).
func (n *Node) Ring() *Ring { return n.ring.Load() }

// Owner routes a digest to its owning member.
func (n *Node) Owner(d [2]uint64) (string, bool) { return n.Ring().Owner(d) }

// logf forwards to the configured logger.
func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Run gossips until ctx is done: one push-pull exchange per interval,
// plus the local age sweep that degrades silent members. The first
// round fires immediately so a freshly booted node joins fast.
func (n *Node) Run(ctx context.Context) {
	t := time.NewTicker(n.cfg.Interval)
	defer t.Stop()
	for {
		n.GossipOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// GossipOnce performs one round: sweep ages, pick a random target
// (a non-dead member, or a seed peer while the table is sparse) and
// push-pull with it. It returns the exchange error, nil when there was
// nobody to talk to.
func (n *Node) GossipOnce(ctx context.Context) error {
	n.sweepAges()
	target := n.pickTarget()
	if target == "" {
		return nil
	}
	return n.Sync(ctx, target)
}

// pickTarget chooses a gossip partner: uniformly among non-dead,
// non-self members, with the configured seed peers mixed in while they
// are still unknown (bootstrap) — and occasionally even when dead, so
// a healed partition or restarted seed is rediscovered.
func (n *Node) pickTarget() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	candidates := make([]string, 0, len(n.members)+len(n.cfg.Peers))
	for addr, m := range n.members {
		if addr == n.cfg.Self || m.state == StateDead {
			continue
		}
		candidates = append(candidates, addr)
	}
	for _, p := range n.cfg.Peers {
		if p == "" || p == n.cfg.Self {
			continue
		}
		m, known := n.members[p]
		if !known || (m.state == StateDead && n.rng.Intn(8) == 0) {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	return candidates[n.rng.Intn(len(candidates))]
}

// Sync push-pulls with one specific peer: POST our table, merge theirs
// from the response. Tests drive convergence deterministically through
// it; Run calls it with a random target.
func (n *Node) Sync(ctx context.Context, addr string) error {
	t0 := time.Now()
	msg := n.buildMessage()
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+"/cluster/gossip", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	n.rounds.Inc()
	if err == nil && resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		err = fmt.Errorf("cluster: gossip with %s: HTTP %d", addr, resp.StatusCode)
	}
	if err != nil {
		n.roundFailures.Inc()
		n.exchangeFailed(addr)
		return err
	}
	defer resp.Body.Close()
	var reply syncMessage
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&reply); derr != nil {
		n.roundFailures.Inc()
		return fmt.Errorf("cluster: gossip reply from %s: %w", addr, derr)
	}
	n.merge(&reply)
	d := time.Since(t0)
	n.roundSeconds.Observe(d.Seconds())
	n.lastRoundMS.Store(d.Milliseconds())
	return nil
}

// Handler serves the gossip protocol for peers:
//
//	POST /cluster/gossip   push-pull membership exchange
//	GET  /cluster/members  the member table as JSON (diagnostics, CI)
//
// Mount it on the same listener the service uses; the advertised
// addresses double as gossip addresses.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/gossip", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, `{"error":"POST only"}`, http.StatusMethodNotAllowed)
			return
		}
		var msg syncMessage
		if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&msg); err != nil {
			http.Error(w, `{"error":"malformed gossip message"}`, http.StatusBadRequest)
			return
		}
		n.merge(&msg)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.buildMessage())
	})
	mux.HandleFunc("/cluster/members", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, `{"error":"GET only"}`, http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		data, _ := json.MarshalIndent(n.Status(), "", "  ")
		w.Write(append(data, '\n'))
	})
	return mux
}

// buildMessage snapshots the table for one exchange.
func (n *Node) buildMessage() *syncMessage {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	msg := &syncMessage{
		From:        n.cfg.Self,
		Incarnation: n.self.incarnation,
		RingVersion: n.ring.Load().Version(),
		Members:     make([]memberInfo, 0, len(n.members)),
	}
	for _, m := range n.members {
		age := now.Sub(m.lastAlive).Milliseconds()
		if m.addr == n.cfg.Self {
			age = 0 // we are our own freshest evidence
		}
		msg.Members = append(msg.Members, memberInfo{
			Addr:        m.addr,
			Incarnation: m.incarnation,
			State:       m.state.String(),
			AgeMS:       age,
		})
	}
	sort.Slice(msg.Members, func(i, j int) bool { return msg.Members[i].Addr < msg.Members[j].Addr })
	return msg
}

// merge folds a peer's message into the table: the sender itself is
// direct alive evidence; per entry, a higher incarnation wins outright
// and equal incarnations keep the freshest (lowest) evidence age.
func (n *Node) merge(msg *syncMessage) {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	// The message itself proves its sender is up right now.
	n.touchLocked(msg.From, msg.Incarnation, now, now)
	for _, info := range msg.Members {
		if info.Addr == "" {
			continue
		}
		if info.Addr == n.cfg.Self {
			// A peer carries a higher incarnation for us only if a stale
			// previous life of this address is still circulating — jump
			// past it so our entry supersedes everywhere.
			if info.Incarnation > n.self.incarnation {
				n.self.incarnation = info.Incarnation + 1
				n.logf("cluster: %s: bumped incarnation past a stale echo", n.cfg.Self)
			}
			continue
		}
		evidence := now.Add(-time.Duration(info.AgeMS) * time.Millisecond)
		n.touchLocked(info.Addr, info.Incarnation, evidence, now)
	}
	n.deriveStatesLocked(now)
	n.rebuildRingLocked()
}

// touchLocked records evidence that addr was alive at evidence time
// under the given incarnation.
func (n *Node) touchLocked(addr string, incarnation uint64, evidence, now time.Time) {
	if addr == "" || addr == n.cfg.Self {
		return
	}
	m, ok := n.members[addr]
	if !ok {
		m = &member{addr: addr, incarnation: incarnation, lastAlive: evidence}
		n.members[addr] = m
		n.logf("cluster: %s joined (incarnation %d)", addr, incarnation)
		return
	}
	if incarnation > m.incarnation {
		// A restarted (or refuting) process: its fresh life supersedes
		// whatever silence the old one had accumulated.
		m.incarnation = incarnation
		if evidence.After(m.lastAlive) {
			m.lastAlive = evidence
		} else {
			m.lastAlive = now
		}
		return
	}
	if incarnation == m.incarnation && evidence.After(m.lastAlive) {
		m.lastAlive = evidence
	}
}

// exchangeFailed records a direct probe failure; the age sweep does the
// actual state math so transitive evidence can still save the member.
func (n *Node) exchangeFailed(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m, ok := n.members[addr]; ok && m.state == StateAlive {
		n.logf("cluster: gossip with %s failed (silent for %v)", addr, time.Since(m.lastAlive).Round(time.Millisecond))
	}
	n.deriveStatesLocked(time.Now())
	n.rebuildRingLocked()
}

// sweepAges re-derives every member's state from its evidence age.
func (n *Node) sweepAges() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.deriveStatesLocked(time.Now())
	n.rebuildRingLocked()
}

// deriveStatesLocked applies the age thresholds, logging transitions
// and garbage-collecting members dead for ten DeadAfter periods.
func (n *Node) deriveStatesLocked(now time.Time) {
	for addr, m := range n.members {
		if addr == n.cfg.Self {
			continue
		}
		age := now.Sub(m.lastAlive)
		next := StateAlive
		switch {
		case age > n.cfg.DeadAfter:
			next = StateDead
		case age > n.cfg.SuspectAfter:
			next = StateSuspect
		}
		if next != m.state {
			n.logf("cluster: %s %s -> %s (silent %v, incarnation %d)",
				addr, m.state, next, age.Round(time.Millisecond), m.incarnation)
			m.state = next
		}
		if m.state == StateDead && age > 10*n.cfg.DeadAfter {
			delete(n.members, addr)
			n.logf("cluster: %s forgotten", addr)
		}
	}
}

// rebuildRingLocked republishes the ring when the non-dead member set
// changed. Suspect members stay on the ring — a blip should not
// reshuffle ownership — only dead ones leave.
func (n *Node) rebuildRingLocked() {
	live := make([]string, 0, len(n.members))
	alive := 0
	for addr, m := range n.members {
		if m.state != StateDead {
			live = append(live, addr)
		}
		if m.state == StateAlive {
			alive++
		}
	}
	sort.Strings(live)
	cur := n.ring.Load()
	if cur != nil && equalStrings(cur.members, live) {
		n.liveGauge.Set(int64(alive))
		return
	}
	next := NewRing(live, n.cfg.VNodes)
	n.ring.Store(next)
	n.liveGauge.Set(int64(alive))
	n.ringGauge.Set(int64(next.Len()))
	n.logf("cluster: ring now %d members (version %016x): %v", next.Len(), next.Version(), live)
}

// rebuildRing is the unlocked form for NewNode.
func (n *Node) rebuildRing() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rebuildRingLocked()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MemberStatus is one member as reported by Status and /cluster/members.
type MemberStatus struct {
	Addr        string `json:"addr"`
	State       string `json:"state"`
	Incarnation uint64 `json:"incarnation"`
	AgeMS       int64  `json:"age_ms"`
	Self        bool   `json:"self,omitempty"`
}

// NodeStatus is the Status snapshot.
type NodeStatus struct {
	Self        string         `json:"self"`
	RingVersion string         `json:"ring_version"`
	RingMembers int            `json:"ring_members"`
	Live        int            `json:"live"`
	Members     []MemberStatus `json:"members"`
	Rounds      int64          `json:"gossip_rounds"`
	Failures    int64          `json:"gossip_failures"`
	LastRoundMS int64          `json:"gossip_last_round_ms"`
}

// Status snapshots the node for /cluster/members and /v1/stats.
func (n *Node) Status() NodeStatus {
	n.sweepAges()
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	ring := n.ring.Load()
	st := NodeStatus{
		Self:        n.cfg.Self,
		RingVersion: fmt.Sprintf("%016x", ring.Version()),
		RingMembers: ring.Len(),
		Rounds:      n.rounds.Value(),
		Failures:    n.roundFailures.Value(),
		LastRoundMS: n.lastRoundMS.Load(),
	}
	for addr, m := range n.members {
		ms := MemberStatus{
			Addr:        addr,
			State:       m.state.String(),
			Incarnation: m.incarnation,
			AgeMS:       now.Sub(m.lastAlive).Milliseconds(),
			Self:        addr == n.cfg.Self,
		}
		if ms.Self {
			ms.AgeMS = 0
		}
		if m.state == StateAlive {
			st.Live++
		}
		st.Members = append(st.Members, ms)
	}
	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].Addr < st.Members[j].Addr })
	return st
}

// LiveMembers returns the sorted addresses currently on the ring —
// the partition targets for a distributed sweep. Self is included.
func (n *Node) LiveMembers() []string {
	return n.Ring().Members()
}
