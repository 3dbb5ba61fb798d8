package main

import (
	"os"
	"testing"
)

// The example runs to the end. It stops the test binary through
// log.Fatal on any error, and that fails the package.
func TestExampleRuns(t *testing.T) {
	out := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Stdout = devnull
	defer func() { os.Stdout = out }()
	main()
}
