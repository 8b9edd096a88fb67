package main

import (
	"os"
	"testing"
)

// TestBadCountsAreUsageErrors: a -keys below one or a negative -flightrec
// exits 2 before any pool is built, instead of wrapping to an endless
// populate loop or running with a full trace in place of the ring.
func TestBadCountsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-keys", "-5"},
		{"-keys", "0"},
		{"-crash", "-flightrec", "-3"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestSmallCleanRun: a small pool is built, defragmented and dumped.
func TestSmallCleanRun(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	old := os.Stdout
	os.Stdout = null
	code := run([]string{"-keys", "200"})
	os.Stdout = old
	if code != 0 {
		t.Errorf("run(-keys 200) = %d, want 0", code)
	}
}
