package twopc

import (
	"fmt"
	"sort"

	"trustseq/internal/ledger"
	"trustseq/internal/model"
)

// Vote is a participant's prepare answer.
type Vote int

// The votes.
const (
	VoteAbort Vote = iota
	VoteCommit
)

// Decision is the coordinator's outcome.
type Decision int

// The decisions.
const (
	DecisionAbort Decision = iota
	DecisionCommit
)

// String names the decision.
func (d Decision) String() string {
	if d == DecisionCommit {
		return "commit"
	}
	return "abort"
}

// Participant is one 2PC member.
type Participant interface {
	ID() model.PartyID
	// Prepare asks whether the participant can commit.
	Prepare() Vote
	// Commit applies the participant's writes. A faulty participant may
	// do nothing here despite having voted commit — the Byzantine-ish
	// behaviour 2PC cannot tolerate.
	Commit() error
	// Abort rolls back.
	Abort()
}

// Stats counts protocol messages: prepare+vote and decision rounds.
type Stats struct {
	Messages int
	Decision Decision
	// CommitErrors records participants whose Commit failed or was
	// silently skipped.
	CommitErrors []error
}

// Coordinator runs one round of 2PC over the participants.
func Coordinator(parts []Participant) Stats {
	s := Stats{}
	decision := DecisionCommit
	for _, p := range parts {
		s.Messages++ // PREPARE
		v := p.Prepare()
		s.Messages++ // vote
		if v != VoteCommit {
			decision = DecisionAbort
		}
	}
	s.Decision = decision
	if decision != DecisionCommit {
		for _, p := range parts {
			s.Messages++ // decision broadcast
			p.Abort()
		}
		return s
	}
	for _, p := range parts {
		s.Messages++ // decision broadcast
		_ = p
	}
	// Commit with retries: a resale participant cannot hand over goods it
	// has not received yet, so commits are applied in rounds until no
	// progress remains (Commit must be retry-safe).
	pending := append([]Participant(nil), parts...)
	var lastErrs map[model.PartyID]error
	for round := 0; round <= len(parts) && len(pending) > 0; round++ {
		errs := make(map[model.PartyID]error)
		var next []Participant
		for _, p := range pending {
			if err := p.Commit(); err != nil {
				errs[p.ID()] = err
				next = append(next, p)
			}
		}
		if len(next) == len(pending) {
			lastErrs = errs
			break // no progress
		}
		pending = next
		lastErrs = errs
	}
	for id, err := range lastErrs {
		s.CommitErrors = append(s.CommitErrors, fmt.Errorf("twopc: %s: %w", id, err))
	}
	sort.Slice(s.CommitErrors, func(i, j int) bool {
		return s.CommitErrors[i].Error() < s.CommitErrors[j].Error()
	})
	return s
}

// ExchangeParticipant adapts a principal to 2PC: on commit it performs
// every transfer of its exchanges directly to the counterparties (no
// intermediaries — 2PC presumes everyone follows the protocol).
type ExchangeParticipant struct {
	Party   model.PartyID
	Problem *model.Problem
	Book    *ledger.Ledger
	// Defect makes the participant vote commit and then silently skip
	// its transfers.
	Defect bool
	// RefuseVote makes the participant vote abort.
	RefuseVote bool

	done map[int]bool // exchanges already transferred (retry safety)
}

var _ Participant = (*ExchangeParticipant)(nil)

// ID implements Participant.
func (e *ExchangeParticipant) ID() model.PartyID { return e.Party }

// Prepare implements Participant.
func (e *ExchangeParticipant) Prepare() Vote {
	if e.RefuseVote {
		return VoteAbort
	}
	return VoteCommit
}

// Commit implements Participant: pay each counterparty directly. It is
// retry-safe; already-performed transfers are skipped.
func (e *ExchangeParticipant) Commit() error {
	if e.Defect {
		return nil // votes yes, transfers nothing, reports no error
	}
	if e.done == nil {
		e.done = make(map[int]bool)
	}
	var firstErr error
	for ei, ex := range e.Problem.Exchanges {
		if ex.Principal != e.Party || e.done[ei] {
			continue
		}
		to, ok := counterparty(e.Problem, ei)
		if !ok {
			return fmt.Errorf("no counterparty for exchange %d", ei)
		}
		if err := e.Book.Transfer(e.Party, to, ex.Gives); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.done[ei] = true
	}
	return firstErr
}

// Abort implements Participant (nothing was transferred yet).
func (e *ExchangeParticipant) Abort() {}

// counterparty resolves who receives the principal's Gives: the other
// principal at the same trusted component.
func counterparty(p *model.Problem, ei int) (model.PartyID, bool) {
	ex := p.Exchanges[ei]
	for ej, other := range p.Exchanges {
		if ej == ei || other.Trusted != ex.Trusted {
			continue
		}
		if other.Principal != ex.Principal && other.Gets.Equal(ex.Gives) {
			return other.Principal, true
		}
	}
	return "", false
}

// RunExchange executes a problem's exchanges under 2PC with the given
// defector set, returning the protocol stats and the final outcome per
// principal: whether the result is acceptable to them (per-exchange
// asset integrity on the resulting transfer state).
func RunExchange(p *model.Problem, defectors map[model.PartyID]bool) (Stats, map[model.PartyID]bool, error) {
	if err := p.Validate(); err != nil {
		return Stats{}, nil, err
	}
	book := ledger.New(p)
	var parts []Participant
	var ids []model.PartyID
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			continue // 2PC runs among the principals directly
		}
		ids = append(ids, pa.ID)
		parts = append(parts, &ExchangeParticipant{
			Party:   pa.ID,
			Problem: p,
			Book:    book,
			Defect:  defectors[pa.ID],
		})
	}
	stats := Coordinator(parts)

	// Build the set of transfers the participants committed to the book.
	// Identical pays from one principal to one counterparty collapse into
	// one entry, as in the paper's set-of-actions states.
	sent := make(map[model.Action]bool)
	for _, part := range parts {
		ep := part.(*ExchangeParticipant)
		for ei, ex := range p.Exchanges {
			if !ep.done[ei] {
				continue
			}
			to, _ := counterparty(p, ei)
			if ex.Gives.Amount > 0 {
				sent[model.Pay(ep.Party, to, ex.Gives.Amount)] = true
			}
			for _, it := range ex.Gives.Items {
				sent[model.Give(ep.Party, to, it)] = true
			}
		}
	}
	outcome := make(map[model.PartyID]bool, len(ids))
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		outcome[id] = acceptableDirect(p, id, sent)
	}
	if err := book.Audit(); err != nil {
		return stats, outcome, err
	}
	return stats, outcome, nil
}

// acceptableDirect checks per-exchange integrity for direct transfers
// (no intermediaries) over the set of committed transfers: for every
// exchange whose Gives the principal actually sent, the corresponding
// Gets must have arrived.
func acceptableDirect(p *model.Problem, id model.PartyID, sent map[model.Action]bool) bool {
	received := model.NewHolding()
	for a := range sent {
		if a.Receiver() == id {
			received.Add(a.Asset())
		}
	}
	for ei, ex := range p.Exchanges {
		if ex.Principal != id {
			continue
		}
		to, ok := counterparty(p, ei)
		if !ok {
			continue
		}
		done := ex.Gives.Amount == 0 || sent[model.Pay(id, to, ex.Gives.Amount)]
		for _, it := range ex.Gives.Items {
			done = done && sent[model.Give(id, to, it)]
		}
		if !done {
			continue
		}
		if !received.Contains(ex.Gets) {
			return false
		}
		_ = received.Remove(ex.Gets)
	}
	return true
}
