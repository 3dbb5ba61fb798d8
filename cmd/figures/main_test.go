package main

import (
	"bytes"
	"strings"
	"testing"
)

// Every experiment runs to completion and reports its paper-vs-measured
// line.
func TestAllExperimentsRun(t *testing.T) {
	var out bytes.Buffer
	if err := run("", "", &out); err != nil {
		t.Fatalf("run = %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"=== E1", "=== E13",
		"measured: feasible=true, steps=10",
		"measured $90", "measured $70",
		"0 honest-party asset breaches",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// E10's table, row by row: problem, graph, strong-search,
	// asset-search, petri-completable.
	for _, row := range []string{
		"example1                true   true           true          true",
		"example2                false  false          true          true",
		"example2-variant1       true   false          true          true",
		"example2-variant2       false  false          true          true",
		"example1-poor-broker    false  false          false         false",
		"example2-indemnified    true   true           true          true",
		"figure7                 false  false          true          true",
	} {
		if !strings.Contains(got, "\n"+row+"\n") {
			t.Errorf("E10 row missing: %q", row)
		}
	}
}

func TestSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run("e5", "", &out); err != nil {
		t.Fatalf("run = %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "=== E5") || strings.Contains(got, "=== E1:") {
		t.Errorf("selection wrong:\n%s", got)
	}
}

func TestDotFiles(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run("e1", dir, &out); err != nil {
		t.Fatalf("run = %v", err)
	}
	if !strings.Contains(out.String(), "wrote DOT figures") {
		t.Errorf("no DOT confirmation:\n%s", out.String())
	}
}
