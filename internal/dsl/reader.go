package dsl

import (
	"fmt"
	"io"

	"trustseq/internal/model"
)

// maxSourceBytes bounds how much specification source LoadReader will
// consume. Real .exch files are a few hundred bytes; the cap exists so a
// network-facing caller (cmd/trustd) cannot be fed an unbounded body.
const maxSourceBytes = 1 << 20

// LoadReader parses and lowers DSL source streamed from r, the
// reusable entry point shared by the CLIs (reading files) and the
// trustd service (reading HTTP request bodies). It reads at most 1 MiB;
// longer inputs fail rather than truncate.
func LoadReader(r io.Reader) (*model.Problem, error) {
	src, err := io.ReadAll(io.LimitReader(r, maxSourceBytes+1))
	if err != nil {
		return nil, fmt.Errorf("dsl: reading source: %w", err)
	}
	if len(src) > maxSourceBytes {
		return nil, fmt.Errorf("dsl: source exceeds %d bytes", maxSourceBytes)
	}
	return Load(string(src))
}
