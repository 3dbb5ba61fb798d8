package dsl

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// The lexer never panics and always terminates on arbitrary input.
func TestLexNeverPanics(t *testing.T) {
	t.Parallel()
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		toks, err := Lex(src)
		if err != nil {
			return true
		}
		// On success the stream is EOF-terminated and position-monotone.
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The parser never panics on token soup assembled from valid lexemes.
func TestParseNeverPanics(t *testing.T) {
	t.Parallel()
	pieces := []string{
		"problem", "exchange", "with", "via", "gives", "doc", "trust",
		"red", "indemnify", "covers", "amount", "require", "before",
		"consumer", "producer", "broker", "trusted", "endowment",
		"{", "}", ";", "+", "->", "$5", `"d"`, "x", "nothing",
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		n := 1 + rng.Intn(25)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
			b.WriteByte(' ')
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// Loading random valid-ish programs either fails cleanly or yields a
// problem that compiles.
func TestLoadAlwaysValidOrError(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		price := 1 + rng.Intn(50)
		src := strings.ReplaceAll(`
problem fuzz {
    consumer c
    producer p
    trusted t
    exchange c with p via t { c gives $PRICE; p gives doc "d" }
}
`, "PRICE", itoa(price))
		p, err := Load(src)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if _, err := model.Compile(p); err != nil {
			t.Fatalf("instance %d: compiled problem invalid: %v", i, err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// FuzzLoad: loading never panics; and where a loaded problem compiles
// and Print renders it, loading the rendering prints the same text and,
// when it compiles too, has the same digest. The seeds are the example
// specs and the paper's fixtures.
func FuzzLoad(f *testing.F) {
	specs, err := filepath.Glob("../../examples/specs/*.exch")
	if err != nil || len(specs) == 0 {
		f.Fatalf("no example specs: %v", err)
	}
	for _, path := range specs {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	fixtures := paperex.All()
	var names []string
	for name := range fixtures {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if src, err := Print(fixtures[name]); err == nil {
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := LoadReader(strings.NewReader(src))
		if err != nil {
			return
		}
		c, err := model.Compile(p)
		if err != nil {
			return
		}
		printed, err := Print(p)
		if err != nil {
			return
		}
		q, err := Load(printed)
		if err != nil {
			t.Fatalf("Load(Print(p)) = %v\n%s", err, printed)
		}
		if again, err := Print(q); err != nil || again != printed {
			t.Fatalf("Print(Load(Print(p))) = %v, differs:\n%s\n---\n%s", err, printed, again)
		}
		if d, err := model.Compile(q); err == nil && d.Digest() != c.Digest() {
			t.Fatalf("Load(Print(p)) has another digest than p:\n%s", printed)
		}
	})
}
