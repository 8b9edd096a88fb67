package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const serveLine = `{"scheme":"ffccd","clients":4,"ops":1200,"keys":400,"seed":1,"site":1500,"nested":3,"policy":"salt","salt":99}`

// runPrinting is run with its standard output captured.
func runPrinting(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = out
	code := run(args)
	os.Stdout = old
	out.Close()
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(printed)
}

// TestReproKindReadFromLine: a serving repro line replays like a batch one,
// the kind read from the line, and -flightrec dumps its ring at the crash.
func TestReproKindReadFromLine(t *testing.T) {
	code, printed := runPrinting(t, "-flightrec", "8", "-repro", serveLine)
	if code != 0 || !strings.Contains(printed, "-- flight recorder at injected crash: serve/ffccd seed 1 --") {
		t.Errorf("-flightrec 8 -repro <serving line> exited %d and printed %q, want 0 and a flight-recorder dump", code, printed)
	}
	if code := run([]string{"-repro", `{"scheme":"ffccd","typo":1}`}); code != 2 {
		t.Errorf("a malformed repro line exited %d, want 2 (usage)", code)
	}
}

// TestUnknownServeSchemeIsUsageError: a serving scheme is validated like any
// setting, not reported as a crash-consistency failure with a repro line.
// Mesh is Figure 16's comparator, no serving scheme, so serve/mesh is one too.
func TestUnknownServeSchemeIsUsageError(t *testing.T) {
	for _, setting := range []string{"serve/bogus", "serve/mesh", "LL/1T/bogus", "LL/100000T/ffccd", "LL/1T/ffccd,serve/"} {
		code, printed := runPrinting(t, "-setting", setting, "-max-sites", "1")
		if code != 2 || strings.Contains(printed, "repro") {
			t.Errorf("-setting %s exited %d and printed %q, want 2 and no repro line", setting, code, printed)
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
	for _, setting := range []string{"serve/3000S/ffccd", "serve/0S/ffccd", "serve/-2S/ffccd"} {
		code, printed := runPrinting(t, "-setting", setting)
		if code != 2 || strings.Contains(printed, "repro") {
			t.Errorf("-setting %s exited %d and printed %q, want 2 and no repro line", setting, code, printed)
		}
	}
}

// TestIgnoredFlagsAreUsageErrors: a flag the run would ignore exits 2 before
// any trial instead of running without it. A replay reads only -flightrec,
// and -parallel for a sharded line; the flags of the serving mode that
// -setting replaced are unknown; and a negative count is refused, not read
// as 0 (exhaustive sites, default workers, no ring).
func TestIgnoredFlagsAreUsageErrors(t *testing.T) {
	batchLine := `{"setting":"LL/1T/ffccd","seed":1,"ops":75,"tail_ops":0,"site":61,"nested":7,"policy":"salt","salt":5807}`
	for _, args := range [][]string{
		{"-setting", "BT/1T/sfccd", "-seed", "9", "-max-sites", "3", "-nested", "-shrink", "-repro", batchLine},
		{"-seed", "9", "-repro", batchLine},
		{"-parallel", "2", "-repro", batchLine},
		{"-parallel", "2", "-repro", serveLine},
		{"-timeout", "1s", "-repro", serveLine},
		{"-max-nested", "1", "-repro", serveLine},
		{"-serve", "-setting", "serve/ffccd", "-max-sites", "1"},
		{"-scheme", "ffccd", "-setting", "LL/1T/ffccd", "-max-sites", "1"},
		{"-serve-shards", "2", "-setting", "LL/1T/ffccd", "-max-sites", "1"},
		{"-max-sites", "-1", "-setting", "LL/1T/ffccd"},
		{"-max-nested", "-1", "-nested", "-setting", "LL/1T/ffccd", "-max-sites", "1"},
		{"-parallel", "-2", "-setting", "LL/1T/ffccd", "-max-sites", "1"},
		{"-flightrec", "-4", "-repro", batchLine},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
	sharded := `{"scheme":"ffccd","clients":4,"ops":300,"keys":128,"seed":1,"site":-1,"nested":-1,"policy":"drop","salt":0,"shards":2,"shard":0}`
	if code := run([]string{"-parallel", "2", "-repro", sharded}); code != 0 {
		t.Errorf("-parallel 2 -repro <sharded line> exited %d, want 0", code)
	}
}
