package service

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"trustseq/internal/obs"
	"trustseq/internal/vlog"
)

// logRootHeader is the response header carrying the daemon log's
// current "<size>:<root-hex>" — the anchor a client pins to verify
// proofs offline.
const logRootHeader = "X-Trustd-Log-Root"

// analysisLogLabel labels the daemon's per-process analysis log in
// served proof envelopes.
const analysisLogLabel = "trustd-analysis"

// serviceLog is the daemon's verifiable analysis log: every analysis
// result this daemon computed is appended as one leaf, and the
// /v1/proof endpoints serve membership and consistency proofs over it.
// The log is per-process: it starts empty at daemon startup, is signed
// by an ephemeral per-daemon key, and only ever grows — which is
// exactly the property the consistency proofs let clients check.
type serviceLog struct {
	mu     sync.Mutex
	log    *vlog.Log
	index  map[[2]uint64]uint64 // problem digest → latest leaf index
	signer *vlog.Signer

	appends, proofs, proofErrors *obs.Counter
}

func newServiceLog(reg *obs.Registry) *serviceLog {
	sl := &serviceLog{
		log:         vlog.NewRetaining(),
		index:       make(map[[2]uint64]uint64),
		appends:     reg.Counter("service.vlog.appends"),
		proofs:      reg.Counter("service.vlog.proofs_served"),
		proofErrors: reg.Counter("service.vlog.proof_errors"),
	}
	// An ephemeral signer: losing entropy at startup leaves the log
	// unsigned rather than the daemon dead — proofs still verify by
	// hash, they just carry no key to pin.
	if signer, err := vlog.NewSigner(); err == nil {
		sl.signer = signer
	}
	return sl
}

// analysisRecord is the canonical leaf encoding of one analysis result:
// a versioned prefix, the problem digest, the full cache key (problem ×
// options), and the SHA-256 of each rendered body. Committing to body
// hashes rather than bodies keeps leaves small while still making any
// later byte change to a served result provable. Version 2 has version
// 1's layout; its two digests are SHA-256 prefixes (fingerprint.go)
// where version 1's were a non-cryptographic hash.
func analysisRecord(digest, key [2]uint64, val *cached) []byte {
	const prefix = "trustd-analysis-v2\x00"
	b := make([]byte, 0, len(prefix)+2*32+2+2*sha256.Size)
	b = append(b, prefix...)
	b = append(b, FormatDigest(digest)...)
	b = append(b, 0)
	b = append(b, FormatDigest(key)...)
	b = append(b, 0)
	j := sha256.Sum256(val.json)
	b = append(b, j[:]...)
	t := sha256.Sum256(val.text)
	return append(b, t[:]...)
}

// append records a finished analysis in the log. Nil-safe: a service
// built without a log (zero-value tests) skips cleanly.
func (sl *serviceLog) append(digest, key [2]uint64, val *cached) {
	if sl == nil {
		return
	}
	rec := analysisRecord(digest, key, val)
	sl.mu.Lock()
	i := sl.log.Append(rec)
	sl.index[digest] = i
	sl.mu.Unlock()
	sl.appends.Inc()
}

// rootHeader renders the current "<size>:<root-hex>" anchor.
func (sl *serviceLog) rootHeader() string {
	if sl == nil {
		return ""
	}
	sl.mu.Lock()
	size, root := sl.log.Size(), sl.log.Root()
	sl.mu.Unlock()
	return fmt.Sprintf("%d:%s", size, root)
}

// publicKey returns the daemon's hex signing key, or "" when unsigned.
func (sl *serviceLog) publicKey() string {
	if sl == nil || sl.signer == nil {
		return ""
	}
	return sl.signer.PublicKey()
}

// snapshot reads the size and root once, for /v1/stats.
func (sl *serviceLog) snapshot() (uint64, string) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.log.Size(), sl.log.Root().String()
}

// handleProof serves the verifiable-log proof endpoints:
//
//	GET /v1/proof/{digest}                     membership of the digest's
//	                                           latest analysis under the
//	                                           current root
//	GET /v1/proof/consistency?from=N[&to=M]    the log at size M (default:
//	                                           current) extends the log
//	                                           at size N append-only
//
// Both return a self-contained vlog.Envelope (JSON) that `trustseq
// verify-proof` checks offline, and both carry the current anchor in
// X-Trustd-Log-Root.
func (s *Service) handleProof(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/proof/")
	if rest == "" || strings.Contains(rest, "/") {
		httpError(w, http.StatusBadRequest,
			"usage: GET /v1/proof/{digest} or GET /v1/proof/consistency?from=N[&to=M]")
		return
	}
	var e *vlog.Envelope
	var err error
	if rest == "consistency" {
		e, err = s.vl.consistencyEnvelope(r.URL.Query().Get("from"), r.URL.Query().Get("to"))
	} else {
		// Only the digest's ring owner logged its analysis, so a
		// membership fetch goes where the analyze went. A consistency
		// proof names no digest and is always this node's.
		if s.cluster != nil {
			if d, err := ParseDigest(rest); err == nil && s.route(w, r, d, nil) == clusterServedProxied {
				return
			}
		}
		e, err = s.vl.membershipEnvelope(rest)
	}
	if err != nil {
		s.vl.proofErrors.Inc()
		writeStatusError(w, err)
		return
	}
	body, err := e.MarshalIndent()
	if err != nil {
		s.vl.proofErrors.Inc()
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.vl.proofs.Inc()
	w.Header().Set(logRootHeader, s.vl.rootHeader())
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// membershipEnvelope proves the latest analysis of one problem digest
// under the current root.
func (sl *serviceLog) membershipEnvelope(digestHex string) (*vlog.Envelope, error) {
	digest, err := ParseDigest(digestHex)
	if err != nil {
		return nil, &StatusError{Code: http.StatusBadRequest, Msg: fmt.Sprintf("proof digest: %v", err)}
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	i, ok := sl.index[digest]
	if !ok {
		return nil, &StatusError{
			Code: http.StatusNotFound,
			Msg:  fmt.Sprintf("no analysis of digest %s in this daemon's log — analyze it first (the log is per-process)", digestHex),
		}
	}
	e, err := vlog.NewMembershipEnvelope(sl.log, analysisLogLabel, i, sl.log.Size(), sl.signer)
	if err != nil {
		return nil, &StatusError{Code: http.StatusInternalServerError, Msg: err.Error()}
	}
	return e, nil
}

// consistencyEnvelope proves the log at size `to` (default: current)
// extends the log at size `from` append-only.
func (sl *serviceLog) consistencyEnvelope(fromStr, toStr string) (*vlog.Envelope, error) {
	if fromStr == "" {
		return nil, &StatusError{Code: http.StatusBadRequest, Msg: "missing required query parameter from"}
	}
	from, err := strconv.ParseUint(fromStr, 10, 64)
	if err != nil {
		return nil, &StatusError{Code: http.StatusBadRequest, Msg: fmt.Sprintf("query parameter from: %v", err)}
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	to := sl.log.Size()
	if toStr != "" {
		to, err = strconv.ParseUint(toStr, 10, 64)
		if err != nil {
			return nil, &StatusError{Code: http.StatusBadRequest, Msg: fmt.Sprintf("query parameter to: %v", err)}
		}
	}
	if from < 1 || to > sl.log.Size() || from > to {
		return nil, &StatusError{
			Code: http.StatusBadRequest,
			Msg:  fmt.Sprintf("consistency range [%d, %d] outside 1 ≤ from ≤ to ≤ %d", from, to, sl.log.Size()),
		}
	}
	e, err := vlog.NewConsistencyEnvelope(sl.log, analysisLogLabel, from, to, sl.signer)
	if err != nil {
		return nil, &StatusError{Code: http.StatusInternalServerError, Msg: err.Error()}
	}
	return e, nil
}

// vlogStats is the /v1/stats block for the verifiable log.
type vlogStats struct {
	Size         uint64 `json:"size"`
	Root         string `json:"root"`
	PublicKey    string `json:"public_key,omitempty"`
	Appends      int64  `json:"appends"`
	ProofsServed int64  `json:"proofs_served"`
	ProofErrors  int64  `json:"proof_errors"`
}

func (sl *serviceLog) stats() vlogStats {
	size, root := sl.snapshot()
	return vlogStats{
		Size:         size,
		Root:         root,
		PublicKey:    sl.publicKey(),
		Appends:      sl.appends.Value(),
		ProofsServed: sl.proofs.Value(),
		ProofErrors:  sl.proofErrors.Value(),
	}
}
