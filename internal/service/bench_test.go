package service

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trustseq/internal/dsl"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/obs"
)

// BenchmarkAnalyzeHit times one resident analyze request through the
// full handler stack (request identity, HTTP metrics, the analyze
// handler) on a ~400 B gen.Random market and a ~60 KB 275-consumer
// population: the two ends of the serve-hot workload's spec sizes.
func BenchmarkAnalyzeHit(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    *model.Problem
	}{
		{"small", gen.Random(rand.New(rand.NewSource(1)), gen.Options{})},
		{"large", gen.Population(275, 0, 50)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			src, err := dsl.Print(bc.p)
			if err != nil {
				b.Fatal(err)
			}
			h := New(Options{Telemetry: &obs.Telemetry{Metrics: obs.NewRegistry()}}).Handler()
			serve := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(src)))
				return rec
			}
			if rec := serve(); rec.Code != http.StatusOK || rec.Header().Get("X-Trustd-Cache") != "miss" {
				b.Fatalf("warm-up: status %d, cache %q: %s", rec.Code, rec.Header().Get("X-Trustd-Cache"), rec.Body)
			}
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := serve(); rec.Header().Get("X-Trustd-Cache") != "hit" {
					b.Fatalf("status %d, cache %q, want a hit", rec.Code, rec.Header().Get("X-Trustd-Cache"))
				}
			}
		})
	}
}
