package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const serveLine = `{"scheme":"ffccd","clients":4,"ops":1200,"keys":400,"seed":1,"site":1500,"nested":3,"policy":"salt","salt":99}`

// TestReproKindReadFromLine: a serving repro line replays with or without
// -serve (it used to fail as an unknown batch field without it).
func TestReproKindReadFromLine(t *testing.T) {
	for _, args := range [][]string{{"-repro", serveLine}, {"-serve", "-repro", serveLine}} {
		if code := run(args); code != 0 {
			t.Errorf("run(%q) = %d, want 0", args, code)
		}
	}
	if code := run([]string{"-repro", `{"scheme":"ffccd","typo":1}`}); code != 2 {
		t.Errorf("a malformed repro line exited %d, want 2 (usage)", code)
	}
}

// TestUnknownServeSchemeIsUsageError: -scheme is validated like -setting, not
// reported as a crash-consistency failure with a repro line.
func TestUnknownServeSchemeIsUsageError(t *testing.T) {
	if code := run([]string{"-serve", "-scheme", "bogus"}); code != 2 {
		t.Errorf("-serve -scheme bogus exited %d, want 2", code)
	}
	for _, setting := range []string{"LL/1T/bogus", "LL/100000T/ffccd"} {
		if code := run([]string{"-setting", setting, "-max-sites", "1"}); code != 2 {
			t.Errorf("-setting %s exited %d, want 2", setting, code)
		}
	}
	if code := run([]string{"-repro", `{"setting":"LL/9T/ffccd","seed":1,"ops":75,"tail_ops":0,"site":61,"nested":7,"policy":"salt","salt":5807}`}); code != 2 {
		t.Errorf("a repro line with 9 threads exited %d, want 2", code)
	}
}

// TestRandomDriverFlagsAreUsageErrors: the batch campaign is the scheduled
// one, so the random-step driver's -trials and the -sites switch are unknown
// flags — exit 2 before any trial runs.
func TestRandomDriverFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-trials", "100"}, {"-sites"}} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestServeShardCountIsUsageError: a serving deployment that cannot be built
// is refused before the campaign starts — exit 2 and no repro line, not a
// crash-consistency FAIL.
func TestServeShardCountIsUsageError(t *testing.T) {
	for _, shards := range []string{"3000", "0", "-2"} {
		out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stdout
		os.Stdout = out
		code := run([]string{"-serve", "-scheme", "ffccd", "-serve-shards", shards})
		os.Stdout = old
		out.Close()
		printed, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		if code != 2 || strings.Contains(string(printed), "repro") {
			t.Errorf("-serve -serve-shards %s exited %d and printed %q, want 2 and no repro line", shards, code, printed)
		}
	}
}

// TestFlagsOfTheOtherCampaignAreUsageErrors: a flag the chosen campaign would
// ignore — -scheme or -serve-shards without -serve, -setting with it — exits
// 2 before any trial instead of running the campaign without it.
func TestFlagsOfTheOtherCampaignAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scheme", "ffccd", "-setting", "LL/1T/ffccd", "-max-sites", "1"},
		{"-serve-shards", "2", "-setting", "LL/1T/ffccd", "-max-sites", "1"},
		{"-serve", "-scheme", "ffccd", "-setting", "bogus/9T/x", "-max-sites", "1"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
