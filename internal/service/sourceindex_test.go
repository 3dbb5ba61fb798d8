package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// indexReply is one analyze response as the source-index tests read it.
type indexReply struct {
	status int
	header http.Header
	body   []byte
}

// postIndexed posts body to url with the given Content-Type and extra
// headers.
func postIndexed(t *testing.T, url, contentType, body string, hdr map[string]string) indexReply {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return indexReply{resp.StatusCode, resp.Header, b}
}

// sourcesLen reports how many sources the index holds.
func sourcesLen(svc *Service) int {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.sources.len()
}

// forgetSources empties the source index, so the next request for a
// resident result takes the parse path to it.
func forgetSources(svc *Service) {
	svc.mu.Lock()
	svc.sources = newLRU[[2]uint64](svc.opts.CacheEntries)
	svc.mu.Unlock()
}

// stageNames lists the stage names of a Server-Timing header value.
func stageNames(h http.Header) map[string]bool {
	names := map[string]bool{}
	for _, part := range strings.Split(h.Get("Server-Timing"), ",") {
		name, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		names[name] = true
	}
	return names
}

// TestSourceIndex pins the source index in front of the result cache:
// a repeated source is answered without being parsed, with exactly the
// bytes and headers the parse path gives, and every request the index
// cannot answer takes the parse path.
func TestSourceIndex(t *testing.T) {
	const raw = "text/plain"
	for _, tc := range []struct {
		name string
		opts Options
		run  func(t *testing.T, svc *Service, url string)
	}{
		{"source hit matches a parsed hit", Options{}, func(t *testing.T, svc *Service, url string) {
			for _, q := range []string{"", "?format=text", "?seq=1&verify=1&format=text", "?crosscheck=1"} {
				// The first request is a miss, or (text after JSON) a
				// parsed hit: the two forms share one cache slot.
				first := postIndexed(t, url+q, raw, feasibleSpec, nil)
				before := svc.sourceHits.Value()
				fast := postIndexed(t, url+q, raw, feasibleSpec, nil)
				if got := svc.sourceHits.Value(); got != before+1 {
					t.Fatalf("%q: source_hits %d -> %d, want one more", q, before, got)
				}
				if st := stageNames(fast.header); st["load"] || st["compile"] ||
					!st["parse"] || !st["digest"] || !st["cache"] || !st["total"] ||
					!strings.Contains(fast.header.Get("Server-Timing"), "cache;dur=") ||
					!strings.Contains(fast.header.Get("Server-Timing"), ";desc=hit") {
					t.Fatalf("%q: source hit Server-Timing %q", q, fast.header.Get("Server-Timing"))
				}
				forgetSources(svc)
				parsed := postIndexed(t, url+q, raw, feasibleSpec, nil)
				if got := svc.sourceHits.Value(); got != before+1 {
					t.Fatalf("%q: a request off the index counted as a source hit", q)
				}
				if !stageNames(parsed.header)["load"] {
					t.Fatalf("%q: parsed hit did not parse: %q", q, parsed.header.Get("Server-Timing"))
				}
				for _, r := range []indexReply{fast, parsed} {
					if first.status != http.StatusOK || r.status != http.StatusOK || !bytes.Equal(r.body, first.body) {
						t.Fatalf("%q: status %d, body differs from the first reply:\n%s", q, r.status, r.body)
					}
				}
				for _, h := range []string{"X-Trustd-Digest", logRootHeader, "X-Trustd-Cache", "Content-Type"} {
					if fast.header.Get(h) != parsed.header.Get(h) || fast.header.Get(h) == "" {
						t.Errorf("%q: %s = %q on a source hit, %q on a parsed hit", q, h, fast.header.Get(h), parsed.header.Get(h))
					}
				}
			}
		}},
		{"raw and JSON forms share one entry", Options{}, func(t *testing.T, svc *Service, url string) {
			first := postIndexed(t, url, raw, feasibleSpec, nil)
			doc, _ := json.Marshal(map[string]any{"source": feasibleSpec})
			again := postIndexed(t, url, "application/json", string(doc), nil)
			if again.header.Get("X-Trustd-Cache") != "hit" || svc.sourceHits.Value() != 1 {
				t.Fatalf("JSON form of an indexed source: cache %q, source_hits %d",
					again.header.Get("X-Trustd-Cache"), svc.sourceHits.Value())
			}
			if !bytes.Equal(again.body, first.body) || sourcesLen(svc) != 1 {
				t.Fatalf("JSON form: body equal %v, index holds %d", bytes.Equal(again.body, first.body), sourcesLen(svc))
			}
		}},
		{"reformatted source hits through the parse path", Options{}, func(t *testing.T, svc *Service, url string) {
			first := postIndexed(t, url, raw, feasibleSpec, nil)
			re := postIndexed(t, url, raw, feasibleSpecReformatted, nil)
			if re.header.Get("X-Trustd-Cache") != "hit" || svc.sourceHits.Value() != 0 {
				t.Fatalf("reformatted: cache %q, source_hits %d", re.header.Get("X-Trustd-Cache"), svc.sourceHits.Value())
			}
			if re.header.Get("X-Trustd-Digest") != first.header.Get("X-Trustd-Digest") || sourcesLen(svc) != 2 {
				t.Fatalf("reformatted: digest %q vs %q, index holds %d",
					re.header.Get("X-Trustd-Digest"), first.header.Get("X-Trustd-Digest"), sourcesLen(svc))
			}
		}},
		{"changed options miss", Options{}, func(t *testing.T, svc *Service, url string) {
			postIndexed(t, url, raw, feasibleSpec, nil)
			if r := postIndexed(t, url+"?seq=1", raw, feasibleSpec, nil); r.header.Get("X-Trustd-Cache") != "miss" {
				t.Fatalf("new options served %q, want miss", r.header.Get("X-Trustd-Cache"))
			}
			if svc.sourceHits.Value() != 0 {
				t.Fatalf("a miss counted as a source hit")
			}
			if r := postIndexed(t, url+"?seq=1", raw, feasibleSpec, nil); r.header.Get("X-Trustd-Cache") != "hit" || svc.sourceHits.Value() != 1 {
				t.Fatalf("repeat of the new options: cache %q, source_hits %d", r.header.Get("X-Trustd-Cache"), svc.sourceHits.Value())
			}
		}},
		{"indexed source with an evicted result runs again", Options{CacheEntries: 1}, func(t *testing.T, svc *Service, url string) {
			first := postIndexed(t, url, raw, feasibleSpec, nil)
			postIndexed(t, url+"?seq=1", raw, feasibleSpec, nil) // evicts the first result
			r := postIndexed(t, url, raw, feasibleSpec, nil)
			if r.status != http.StatusOK || r.header.Get("X-Trustd-Cache") != "miss" || !bytes.Equal(r.body, first.body) {
				t.Fatalf("status %d, cache %q, body equal %v", r.status, r.header.Get("X-Trustd-Cache"), bytes.Equal(r.body, first.body))
			}
			if svc.sourceHits.Value() != 0 {
				t.Fatalf("a rerun counted as a source hit")
			}
		}},
		{"malformed base is a 400 on an indexed source", Options{}, func(t *testing.T, svc *Service, url string) {
			postIndexed(t, url, raw, feasibleSpec, nil)
			r := postIndexed(t, url, raw, feasibleSpec, map[string]string{"X-Trustd-Base": "not-a-digest"})
			if r.status != http.StatusBadRequest || !strings.Contains(string(r.body), "X-Trustd-Base") {
				t.Fatalf("status %d: %s", r.status, r.body)
			}
		}},
		{"parse failures are never indexed", Options{}, func(t *testing.T, svc *Service, url string) {
			var first []byte
			for i := 0; i < 3; i++ {
				r := postIndexed(t, url, raw, "problem {", nil)
				if r.status != http.StatusBadRequest {
					t.Fatalf("repeat %d: status %d", i, r.status)
				}
				if i == 0 {
					first = r.body
				} else if !bytes.Equal(r.body, first) {
					t.Fatalf("repeat %d: error %s, first was %s", i, r.body, first)
				}
			}
			if n := sourcesLen(svc); n != 0 {
				t.Fatalf("index holds %d entries after parse failures", n)
			}
		}},
		{"index is bounded by CacheEntries", Options{CacheEntries: 2}, func(t *testing.T, svc *Service, url string) {
			for i := 0; i < 5; i++ {
				spec := strings.Replace(feasibleSpec, "example1", fmt.Sprintf("example%d", i), 1)
				if r := postIndexed(t, url, raw, spec, nil); r.status != http.StatusOK {
					t.Fatalf("spec %d: status %d", i, r.status)
				}
				if n := sourcesLen(svc); n > 2 {
					t.Fatalf("after %d specs the index holds %d entries, capacity 2", i+1, n)
				}
			}
			if n := sourcesLen(svc); n != 2 {
				t.Fatalf("index holds %d entries, want 2", n)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, ts, _ := newTestService(t, tc.opts)
			tc.run(t, svc, ts.URL+"/v1/analyze")
		})
	}
}

// TestAnalyzeQueryErrorIsDeterministic: with both integer parameters
// malformed, the 400 always names the same one.
func TestAnalyzeQueryErrorIsDeterministic(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	for i := 0; i < 20; i++ {
		resp, body := postSpec(t, ts.URL+"/v1/analyze?seed=x&deadline=y", feasibleSpec)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "query parameter seed") {
			t.Fatalf("try %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
}

// TestSourceHitsExposed: the source-hit counter appears in /v1/stats
// and /metrics.
func TestSourceHitsExposed(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)
	postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)
	for path, want := range map[string]string{
		"/v1/stats": `"source_hits": 1`,
		"/metrics":  `"service.cache.source_hits": 1`,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s lacks %q:\n%s", path, want, body)
		}
	}
}

// TestSourceIndexConcurrent drives the index from many goroutines at
// once — first sightings, repeats and both request forms interleaved —
// for the race detector; every reply must carry its source's bytes.
func TestSourceIndexConcurrent(t *testing.T) {
	svc, ts, _ := newTestService(t, Options{CacheEntries: 4})
	specs := []string{feasibleSpec, infeasibleSpec, feasibleSpecReformatted}
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		_, want[i] = postSpec(t, ts.URL+"/v1/analyze?format=text", spec)
	}
	forgetSources(svc)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % len(specs)
				resp, err := http.Post(ts.URL+"/v1/analyze?format=text", "text/plain", strings.NewReader(specs[k]))
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[k]) {
					t.Errorf("goroutine %d, spec %d: status %d, body differs", g, k, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	if svc.sourceHits.Value() == 0 || sourcesLen(svc) != len(specs) {
		t.Fatalf("source_hits %d, index holds %d", svc.sourceHits.Value(), sourcesLen(svc))
	}
}
