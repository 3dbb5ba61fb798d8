package petri

import (
	"fmt"
	"math"

	"trustseq/internal/model"
	"trustseq/internal/obs"
)

// Encoding is the Petri-net rendering of an exchange problem, per the
// Section 7.4 sketch: money and documents are tokens; deposit
// transitions move a principal's assets into per-exchange escrow places;
// a completion transition per trusted component consumes every adjacent
// escrow and produces the promised deliveries plus one "done" token per
// exchange. Subset coverability of the all-done marking witnesses a
// completing execution (the asset-level reading of feasibility; the
// safety pruning of the search baselines is deliberately not encoded —
// that is exactly the gap Section 7.4 leaves open).
type Encoding struct {
	Net     *Net
	Problem *model.Compiled
	Initial Marking
	// Done[ei] is the done-place of exchange ei.
	Done []PlaceID
}

// cashPlace and itemPlace intern the asset places for a party.
func cashPlace(n *Net, id model.PartyID) PlaceID {
	return n.Place("cash:" + string(id))
}

func itemPlace(n *Net, id model.PartyID, it model.ItemID) PlaceID {
	return n.Place(fmt.Sprintf("item:%s:%s", id, it))
}

func escrowCash(n *Net, ei int) PlaceID {
	return n.Place(fmt.Sprintf("esc-cash:%d", ei))
}

func escrowItem(n *Net, ei int, it model.ItemID) PlaceID {
	return n.Place(fmt.Sprintf("esc-item:%d:%s", ei, it))
}

// TokenOverflowError reports a problem whose money does not fit the
// encoding's int32 token counts.
type TokenOverflowError struct {
	Problem string
	What    string // the arc or token total that overflows
	Tokens  int64
}

// Error implements error.
func (e *TokenOverflowError) Error() string {
	return fmt.Sprintf("petri: problem %q: %s of %d tokens exceeds the encoding's limit of %d",
		e.Problem, e.What, e.Tokens, math.MaxInt32)
}

// checkTokens rejects problems the int32 encoding would truncate. Every
// transition conserves money (deposits move it into escrow, and
// model.Compile makes each trusted component pay out exactly what it
// takes in), so when the initial money and every arc weight fit in
// int32, no money place can overflow. Item tokens never outnumber the
// items the exchanges list, and a done place gains one token per
// completion fired, so neither comes near the bound.
func checkTokens(p *model.Compiled, n *Net, holdings map[model.PartyID]*model.Holding) error {
	var money int64
	for _, h := range holdings {
		money += int64(h.Cash)
	}
	if money > math.MaxInt32 {
		return &TokenOverflowError{Problem: p.Name, What: "initial money", Tokens: money}
	}
	for _, t := range n.trans {
		for _, arcs := range []map[PlaceID]int{t.In, t.Out} {
			for pl, w := range arcs {
				if int64(w) > math.MaxInt32 {
					return &TokenOverflowError{Problem: p.Name,
						What: fmt.Sprintf("arc %s–%s", t.Name, n.PlaceName(pl)), Tokens: int64(w)}
				}
			}
		}
	}
	return nil
}

// FromProblem compiles the problem and encodes it (Encode). Callers
// that hold a compiled problem call Encode.
func FromProblem(p *model.Problem) (*Encoding, error) {
	c, err := model.Compile(p)
	if err != nil {
		return nil, err
	}
	return Encode(c)
}

// Encode encodes the problem. Money amounts become token counts, so
// keep prices modest when exploring exhaustively; a problem whose money
// does not fit in int32 token counts gets a *TokenOverflowError.
func Encode(p *model.Compiled) (*Encoding, error) {
	n := NewNet()
	enc := &Encoding{Net: n, Problem: p, Done: make([]PlaceID, len(p.Exchanges))}

	// Deposit transitions.
	for ei, e := range p.Exchanges {
		in := map[PlaceID]int{}
		out := map[PlaceID]int{}
		if e.Gives.Amount > 0 {
			in[cashPlace(n, e.Principal)] = int(e.Gives.Amount)
			out[escrowCash(n, ei)] = int(e.Gives.Amount)
		}
		for _, it := range e.Gives.Items {
			in[itemPlace(n, e.Principal, it)]++
			out[escrowItem(n, ei, it)]++
		}
		enc.Done[ei] = n.Place(fmt.Sprintf("done:%d", ei))
		n.AddTransition(fmt.Sprintf("deposit:%d", ei), in, out)
	}

	// Completion transitions, one per trusted component.
	for _, pa := range p.Parties {
		if !pa.IsTrusted() {
			continue
		}
		in := map[PlaceID]int{}
		out := map[PlaceID]int{}
		any := false
		for ei, e := range p.Exchanges {
			if e.Trusted != pa.ID {
				continue
			}
			any = true
			if e.Gives.Amount > 0 {
				in[escrowCash(n, ei)] += int(e.Gives.Amount)
			}
			for _, it := range e.Gives.Items {
				in[escrowItem(n, ei, it)]++
			}
			if e.Gets.Amount > 0 {
				out[cashPlace(n, e.Principal)] += int(e.Gets.Amount)
			}
			for _, it := range e.Gets.Items {
				out[itemPlace(n, e.Principal, it)]++
			}
			out[enc.Done[ei]]++
		}
		if any {
			n.AddTransition("complete:"+string(pa.ID), in, out)
		}
	}

	// Intern every holding place before sizing the initial marking.
	holdings := model.InitialHoldings(p)
	if err := checkTokens(p, n, holdings); err != nil {
		return nil, err
	}
	for id, h := range holdings {
		if h.Cash > 0 {
			cashPlace(n, id)
		}
		for it := range h.Items {
			itemPlace(n, id, it)
		}
	}
	enc.Initial = n.NewMarking()
	for id, h := range holdings {
		if h.Cash > 0 {
			enc.Initial[cashPlace(n, id)] = int(h.Cash)
		}
		for it, cnt := range h.Items {
			enc.Initial[itemPlace(n, id, it)] = cnt
		}
	}
	// The net is complete; compile the flat arc form here, on the single
	// construction goroutine, so every later exploration — on any
	// goroutine — starts from the cached arcs.
	n.compile()
	return enc, nil
}

// CompletedTarget is the sub-marking requiring every exchange's done
// token — the paper's "exchange completed" place set.
func (e *Encoding) CompletedTarget() Marking {
	t := e.Net.NewMarking()
	for _, p := range e.Done {
		t[p] = 1
	}
	return t
}

// Completable reports whether the all-done marking is coverable, with
// the exact bounded search and no telemetry.
func (e *Encoding) Completable(maxStates int) ReachabilityResult {
	return e.CompletableObs(maxStates, nil, nil)
}

// CompletableObs is Completable with telemetry and reusable scratch
// buffers (see ReachableCover; either may be nil).
func (e *Encoding) CompletableObs(maxStates int, tel *obs.Telemetry, sc *CoverScratch) ReachabilityResult {
	return e.Net.ReachableCover(e.Initial, e.CompletedTarget(), maxStates, tel, sc)
}
