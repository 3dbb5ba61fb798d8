package twopc

import (
	"strings"
	"testing"

	"trustseq/internal/ledger"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// E12, honest half: under universal protocol compliance, 2PC completes
// Example 1 with fewer messages than the trust protocol needs.
func TestHonest2PCCompletesExample1(t *testing.T) {
	t.Parallel()
	stats, outcome, err := RunExchange(model.MustCompile(paperex.Example1()), nil)
	if err != nil {
		t.Fatalf("RunExchange = %v", err)
	}
	if stats.Decision != DecisionCommit {
		t.Fatalf("decision = %v", stats.Decision)
	}
	if len(stats.CommitErrors) != 0 {
		t.Fatalf("commit errors: %v", stats.CommitErrors)
	}
	for id, ok := range outcome {
		if !ok {
			t.Errorf("2PC outcome unacceptable to %s", id)
		}
	}
	// 3 participants: 3 prepare + 3 votes + 3 decisions = 9 messages —
	// fewer than the trust protocol's 10 actions plus notifications.
	if stats.Messages != 9 {
		t.Errorf("messages = %d, want 9", stats.Messages)
	}
}

// E12, defection half: a participant that votes commit and then keeps
// its assets breaks atomicity — honest parties end in unacceptable
// states. This is why commit protocols do not solve the paper's problem
// ("commit protocols rely on trust among all parties", Section 1).
func TestDefector2PCHarmsHonestParties(t *testing.T) {
	t.Parallel()
	stats, outcome, err := RunExchange(model.MustCompile(paperex.Example1()),
		map[model.PartyID]bool{paperex.Broker: true})
	if err != nil {
		t.Fatalf("RunExchange = %v", err)
	}
	if stats.Decision != DecisionCommit {
		t.Fatalf("decision = %v (the defector votes yes)", stats.Decision)
	}
	// The consumer paid the broker and received nothing.
	if outcome[paperex.Consumer] {
		t.Errorf("consumer unexpectedly whole after broker defection")
	}
	// The producer gave its document to the broker and was never paid.
	if outcome[paperex.Producer] {
		t.Errorf("producer unexpectedly whole after broker defection")
	}
	// The defector itself is fine — it kept everything.
	if !outcome[paperex.Broker] {
		t.Errorf("defecting broker reported harmed")
	}
}

// A refused vote aborts cleanly: nothing moves, everyone stays whole.
func TestVoteAbortIsClean(t *testing.T) {
	t.Parallel()
	p := model.MustCompile(paperex.Example1())
	book, parts := buildParts(t, p)
	opening := book.String()
	parts[0].(*ExchangeParticipant).RefuseVote = true
	stats := Coordinator(parts)
	if stats.Decision != DecisionAbort {
		t.Fatalf("decision = %v", stats.Decision)
	}
	if got := book.String(); got != opening {
		t.Fatalf("transfers happened despite abort:\n%s\nopening:\n%s", got, opening)
	}
}

func buildParts(t *testing.T, p *model.Compiled) (*ledger.Ledger, []Participant) {
	t.Helper()
	book := ledger.New(p)
	var parts []Participant
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			continue
		}
		parts = append(parts, &ExchangeParticipant{Party: pa.ID, Problem: p, Book: book})
	}
	return book, parts
}

func TestDecisionString(t *testing.T) {
	t.Parallel()
	if DecisionCommit.String() != "commit" || DecisionAbort.String() != "abort" {
		t.Fatalf("Decision strings wrong")
	}
}

// The resale dependency requires retry rounds: the broker cannot hand
// over the document before the producer's commit lands. The honest run
// on Example 2 (two chains) must also settle fully.
func TestCommitRetriesResolveResaleOrder(t *testing.T) {
	t.Parallel()
	stats, outcome, err := RunExchange(model.MustCompile(paperex.Example2()), nil)
	if err != nil {
		t.Fatalf("RunExchange = %v", err)
	}
	if len(stats.CommitErrors) != 0 {
		t.Fatalf("commit errors: %v", stats.CommitErrors)
	}
	for id, ok := range outcome {
		if !ok {
			t.Errorf("unacceptable to %s", id)
		}
	}
}

// Sanity on the error rendering for stuck commits: a silent producer
// leaves the broker's sale permanently unfundable.
func TestStuckCommitReported(t *testing.T) {
	t.Parallel()
	stats, _, err := RunExchange(model.MustCompile(paperex.Example1()),
		map[model.PartyID]bool{paperex.Producer: true})
	if err != nil {
		t.Fatalf("RunExchange = %v", err)
	}
	if len(stats.CommitErrors) == 0 {
		t.Fatalf("no commit errors despite silent producer")
	}
	if !strings.Contains(stats.CommitErrors[0].Error(), "cannot pay") {
		t.Errorf("error = %v", stats.CommitErrors[0])
	}
}
