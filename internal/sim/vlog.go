package sim

import (
	"encoding/binary"
	"fmt"

	"trustseq/internal/model"
	"trustseq/internal/vlog"
)

// AuditRecord is the canonical byte encoding of one delivered message
// for the verifiable settlement log: every field that determines what
// the message did — delivery time, kind, endpoints, the action, the
// tag — length- or varint-prefixed so no two distinct messages share an
// encoding. The trace order plus these bytes fully determine the
// settlement root; an offline verifier can rebuild the root from a
// trace alone.
func AuditRecord(m Message) []byte {
	return appendAuditRecord(make([]byte, 0, 64), &m)
}

// appendAuditRecord appends m's AuditRecord encoding to b.
func appendAuditRecord(b []byte, m *Message) []byte {
	b = binary.AppendVarint(b, int64(m.At))
	b = binary.AppendUvarint(b, uint64(m.Kind))
	b = appendString(b, string(m.From))
	b = appendString(b, string(m.To))
	b = binary.AppendUvarint(b, uint64(m.Action.Kind))
	b = appendString(b, string(m.Action.From))
	b = appendString(b, string(m.Action.To))
	b = appendString(b, string(m.Action.Item))
	b = binary.AppendVarint(b, int64(m.Action.Amount))
	if m.Action.Inverse {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return appendString(b, m.Tag)
}

// appendString appends a uvarint length prefix and the bytes, making
// the overall record encoding prefix-free per field.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// SettlementLog builds the verifiable log over a delivered-message
// trace, one leaf per trace entry in delivery order. It is hash-only:
// the trace itself already retains the records. The log is built in
// one batch, which encodes and hashes the records on every core.
func SettlementLog(trace []Message) *vlog.Log {
	l := vlog.New()
	l.AppendBatch(len(trace), func(buf []byte, i int) []byte {
		return appendAuditRecord(buf, &trace[i])
	})
	return l
}

// ReplayBalancesVerified is ReplayBalances in root-checked mode: it
// first rebuilds the settlement log from the trace and demands its root
// equal the root the run published, then replays the trace through a
// fresh ledger. The root binds every entry and its position, so a
// truncated, edited, or reordered trace fails before any balance is
// derived.
func ReplayBalancesVerified(p *model.Compiled, trace []Message, root vlog.Hash) (map[model.PartyID]*model.Holding, error) {
	if got := SettlementLog(trace).Root(); got != root {
		return nil, fmt.Errorf("sim: %w: trace rebuilds root %s, run published %s", vlog.ErrRootMismatch, got, root)
	}
	return ReplayBalances(p, trace)
}

// ReplayBalancesVerified re-derives the run's final balances from its
// own trace, checked against the run's settlement root.
// The run must have been made with Options.VLog set.
func (r *Result) ReplayBalancesVerified() (map[model.PartyID]*model.Holding, error) {
	if r.SettlementLog == nil {
		return nil, fmt.Errorf("sim: run has no settlement log; set Options.VLog")
	}
	return ReplayBalancesVerified(r.Problem, r.Trace, r.SettlementLog.Root())
}
