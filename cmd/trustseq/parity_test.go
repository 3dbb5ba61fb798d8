package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trustseq/internal/service"
)

// TestServiceParity pins the acceptance contract of the trustd daemon:
// for every example spec, the service's text rendering is byte-identical
// to what this CLI prints — same flags, same bytes — so a cached daemon
// answer can always be diffed against a fresh CLI run.
func TestServiceParity(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.exch"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	svc := service.New(service.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	variants := []struct {
		name  string
		flags []string
		query string
	}{
		{"plain", nil, ""},
		{"seq", []string{"-seq"}, "?seq=1"},
		{"indemnify", []string{"-indemnify"}, "?indemnify=1"},
		{"seq+verify", []string{"-seq", "-verify"}, "?seq=1&verify=1"},
		{"seq+verify+indemnify", []string{"-seq", "-verify", "-indemnify"}, "?seq=1&verify=1&indemnify=1"},
	}
	for _, spec := range specs {
		src, err := os.ReadFile(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			t.Run(filepath.Base(spec)+"/"+v.name, func(t *testing.T) {
				var cli bytes.Buffer
				if err := run(append(v.flags, spec), &cli); err != nil {
					t.Fatalf("trustseq CLI: %v", err)
				}
				resp, err := http.Post(ts.URL+"/v1/analyze"+v.query+
					urlSep(v.query)+"format=text", "text/plain", strings.NewReader(string(src)))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("service status %d: %s", resp.StatusCode, body)
				}
				if !bytes.Equal(cli.Bytes(), body) {
					t.Errorf("service output differs from CLI:\n--- CLI ---\n%s\n--- service ---\n%s", cli.Bytes(), body)
				}
			})
		}
	}
}

func urlSep(query string) string {
	if query == "" {
		return "?"
	}
	return "&"
}
