package cluster

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// testNode boots a Node whose gossip handler listens on a real
// loopback port, so Sync exchanges run the actual HTTP path.
type testNode struct {
	node *Node
	srv  *http.Server
	ln   net.Listener
}

func startNode(t *testing.T, cfg Config) *testNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Self = ln.Addr().String()
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: n.Handler()}
	go srv.Serve(ln)
	tn := &testNode{node: n, srv: srv, ln: ln}
	t.Cleanup(func() { srv.Close() })
	return tn
}

func (tn *testNode) stop() { tn.srv.Close() }

func TestNodeRequiresSelf(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("NewNode accepted an empty Self")
	}
}

func TestGossipConvergence(t *testing.T) {
	a := startNode(t, Config{})
	b := startNode(t, Config{})
	c := startNode(t, Config{})
	ctx := context.Background()

	// a learns b directly; c learns the pair transitively through b.
	if err := a.node.Sync(ctx, b.node.Self()); err != nil {
		t.Fatal(err)
	}
	if err := c.node.Sync(ctx, b.node.Self()); err != nil {
		t.Fatal(err)
	}
	// One more exchange closes the a<->c edge via b's table.
	if err := a.node.Sync(ctx, b.node.Self()); err != nil {
		t.Fatal(err)
	}

	for _, tn := range []*testNode{a, b, c} {
		st := tn.node.Status()
		if len(st.Members) != 3 {
			t.Fatalf("%s sees %d members, want 3: %+v", tn.node.Self(), len(st.Members), st.Members)
		}
		if st.Live != 3 {
			t.Fatalf("%s sees %d live, want 3", tn.node.Self(), st.Live)
		}
	}
	va, vb, vc := a.node.Ring().Version(), b.node.Ring().Version(), c.node.Ring().Version()
	if va != vb || vb != vc {
		t.Fatalf("ring versions diverge: %x %x %x", va, vb, vc)
	}
	// All three route any digest to the same owner.
	for _, d := range randomDigests(200, 7) {
		oa, _ := a.node.Owner(d)
		ob, _ := b.node.Owner(d)
		oc, _ := c.node.Owner(d)
		if oa != ob || ob != oc {
			t.Fatalf("owner disagreement for %v: %q %q %q", d, oa, ob, oc)
		}
	}

	// A peer running an older release still sends cache-fill
	// announcements next to its member table; the fills are ignored and
	// the membership merges as usual.
	const legacy = `{"from":"127.0.0.1:1","incarnation":7,"ring_version":0,
		"members":[{"addr":"127.0.0.1:1","incarnation":7,"state":"alive","age_ms":0}],
		"fills":[{"origin":"127.0.0.1:1","seq":1,"kind":"result","key":"deadbeef"},
		         {"origin":"127.0.0.1:1","seq":2,"kind":"base","key":"cafe","evict":true}]}`
	resp, err := http.Post("http://"+c.node.Self()+"/cluster/gossip", "application/json", strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	var reply syncMessage
	derr := json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || derr != nil {
		t.Fatalf("legacy gossip message: status %d, decode %v", resp.StatusCode, derr)
	}
	if len(reply.Members) != 4 {
		t.Fatalf("reply lists %d members after the legacy merge, want 4", len(reply.Members))
	}
	if st := c.node.Status(); st.Live != 4 || c.node.Ring().Len() != 4 {
		t.Fatalf("legacy peer not merged: live %d, ring %d", st.Live, c.node.Ring().Len())
	}
}

func TestGossipSuspectThenDeadHealsRing(t *testing.T) {
	cfg := Config{SuspectAfter: 40 * time.Millisecond, DeadAfter: 120 * time.Millisecond}
	a := startNode(t, cfg)
	b := startNode(t, cfg)
	ctx := context.Background()
	if err := a.node.Sync(ctx, b.node.Self()); err != nil {
		t.Fatal(err)
	}
	if got := a.node.Ring().Len(); got != 2 {
		t.Fatalf("ring has %d members before the kill, want 2", got)
	}

	b.stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.node.GossipOnce(ctx) // probes fail; the age sweep degrades b
		st := a.node.Status()
		var bState string
		for _, m := range st.Members {
			if m.Addr == b.node.Self() {
				bState = m.State
			}
		}
		if bState == "dead" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("b never went dead; status %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := a.node.Ring().Len(); got != 1 {
		t.Fatalf("ring did not heal: %d members, want 1", got)
	}
	if owner, ok := a.node.Owner([2]uint64{1, 2}); !ok || owner != a.node.Self() {
		t.Fatalf("healed ring routes to %q, want self", owner)
	}
}

func TestGossipRestartSupersedesOldIncarnation(t *testing.T) {
	cfg := Config{SuspectAfter: 40 * time.Millisecond, DeadAfter: 120 * time.Millisecond}
	a := startNode(t, cfg)
	b := startNode(t, cfg)
	ctx := context.Background()
	if err := a.node.Sync(ctx, b.node.Self()); err != nil {
		t.Fatal(err)
	}

	// Kill b and let a declare it dead.
	addr := b.node.Self()
	b.stop()
	time.Sleep(150 * time.Millisecond)
	a.node.GossipOnce(ctx)
	if got := a.node.Ring().Len(); got != 1 {
		t.Fatalf("ring still has %d members after death", got)
	}

	// Restart a fresh process on the same address: its wall-clock
	// incarnation is higher, so the old dead entry is superseded.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	n2, err := NewNode(Config{Self: addr, SuspectAfter: cfg.SuspectAfter, DeadAfter: cfg.DeadAfter})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &http.Server{Handler: n2.Handler()}
	go srv2.Serve(ln)
	t.Cleanup(func() { srv2.Close() })

	if err := a.node.Sync(ctx, addr); err != nil {
		t.Fatal(err)
	}
	st := a.node.Status()
	for _, m := range st.Members {
		if m.Addr == addr && m.State != "alive" {
			t.Fatalf("restarted member is %s, want alive: %+v", m.State, st.Members)
		}
	}
	if got := a.node.Ring().Len(); got != 2 {
		t.Fatalf("restarted member not back on the ring: %d members", got)
	}
}

func TestGossipOnceWithNobodyToTalkTo(t *testing.T) {
	a := startNode(t, Config{})
	if err := a.node.GossipOnce(context.Background()); err != nil {
		t.Fatalf("lonely gossip round errored: %v", err)
	}
	if owner, ok := a.node.Owner([2]uint64{3, 4}); !ok || owner != a.node.Self() {
		t.Fatalf("single-node cluster routes to %q, want self", owner)
	}
}
