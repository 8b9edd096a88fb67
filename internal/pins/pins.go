// Package pins checks and rewrites testdata/pins.txt, the module's one record
// of pinned simulated output: one "key<TAB>printed text" line per pin, keyed
// "<section> <name>", plus '#' comment lines. Each section has one owning
// test, which recomputes its lines:
//
//	crashmatrix, servecrash, campaign  TestPins (module root)
//	cycles                             experiments.TestGoldenCycles
//	serve                              redisws.TestServeGolden
//	repro                              faultinject.TestReproHashesPinned
//
// A host-side change must move no line. An intentional change of the
// simulated machine rewrites the owned sections with -update-pins (`make
// pins`), which logs each moved line as "old <key><TAB><text>" then
// "new <key><TAB><text>", and a line no longer printed as "gone <key>...".
package pins

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update-pins", false,
	"rewrite the test's sections of testdata/pins.txt and print each moved line's old and new text")

// Sections are the pinned lines one test owns: every manifest line whose
// key's first word is one of its section names.
type Sections struct {
	path   string
	names  []string
	file   []string          // every manifest line, in order
	pinned map[string]string // owned key → pinned text
	mu     sync.Mutex
	got    map[string]string // owned key → recomputed text
}

// Open reads the manifest, found in testdata/ of the module root above the
// test's working directory, and returns the sections named.
func Open(t testing.TB, names ...string) *Sections {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("pins: no go.mod above the working directory")
		}
		dir = parent
	}
	s := &Sections{path: filepath.Join(dir, "testdata", "pins.txt"), names: names,
		pinned: map[string]string{}, got: map[string]string{}}
	text, err := os.ReadFile(s.path)
	if err != nil {
		t.Fatal(err)
	}
	s.file = strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	for _, l := range s.file {
		if k, v, ok := strings.Cut(l, "\t"); ok && s.owns(l) {
			s.pinned[k] = v
		}
	}
	return s
}

// owns reports whether manifest line l is a pin of one of s's sections.
func (s *Sections) owns(l string) bool {
	if strings.HasPrefix(l, "#") {
		return false
	}
	section, _, _ := strings.Cut(l, " ")
	for _, n := range s.names {
		if section == n {
			return true
		}
	}
	return false
}

// Expect records text as key's recomputed line and fails t if it differs
// from the pinned one (under -update-pins it logs the move instead). Two runs
// recorded under one key, say from scratch and forked, must print alike.
// Expect may be called from parallel subtests.
func (s *Sections) Expect(t testing.TB, key, text string) {
	t.Helper()
	s.mu.Lock()
	prev, seen := s.got[key]
	if !seen {
		s.got[key] = text
	}
	s.mu.Unlock()
	if seen && prev != text {
		t.Errorf("%s: two runs print\n\t%s\nand\n\t%s", key, prev, text)
	}
	was, ok := s.pinned[key]
	if ok && was == text {
		return
	}
	report := t.Errorf
	if *update {
		if seen {
			return
		}
		report = t.Logf
	}
	report("old %s\t%s", key, was)
	report("new %s\t%s", key, text)
}

// Close ends t's check once every Expect has run: keys are every key its
// sections pin now, in print order. It reports each pinned key not among
// them as gone, and under -update-pins, if t has not failed, rewrites the
// sections' lines in keys' order where the first of them stood (at the end
// of the file if none did). Keys no Expect recorded, as when -run selects
// some subtests, are not checked, but rewriting then fails.
func (s *Sections) Close(t testing.TB, keys []string) {
	t.Helper()
	report := t.Errorf
	if *update {
		report = t.Logf
	}
	want := map[string]bool{}
	for _, k := range keys {
		want[k] = true
	}
	for _, l := range s.file {
		if k, v, ok := strings.Cut(l, "\t"); ok && s.owns(l) && !want[k] {
			report("gone %s\t%s", k, v)
		}
	}
	if !*update || t.Failed() {
		return
	}
	var lines []string
	for _, k := range keys {
		text, ok := s.got[k]
		if !ok {
			t.Errorf("%s: not recomputed, so -update-pins cannot rewrite it", k)
			return
		}
		lines = append(lines, k+"\t"+text)
	}
	var out []string
	for _, l := range s.file {
		if !s.owns(l) {
			out = append(out, l)
		} else if lines != nil {
			out, lines = append(out, lines...), nil
		}
	}
	out = append(out, lines...)
	if err := os.WriteFile(s.path, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
		t.Error(err)
	}
}
