package faultinject_test

import (
	"testing"

	"ffccd/internal/faultinject"
)

// FuzzParseSchedule feeds arbitrary text to the repro-line parser (and to
// ParseSetting, which it relies on). Neither may panic; an accepted line must
// survive the marshal/parse round trip unchanged; a rejected line must come
// back as an error with no schedule to run by mistake. The seed corpus runs
// in every plain `go test`.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		// The pinned lines of media_test.go.
		`{"setting":"LL/1T/ffccd","seed":1,"ops":600,"tail_ops":120,"site":489,"nested":7,"policy":"salt","salt":5807}`,
		`{"setting":"LL/1T/ffccd","seed":1,"ops":75,"tail_ops":0,"site":61,"nested":7,"policy":"salt","salt":5807}`,
		`{"scheme":"ffccd","clients":4,"ops":1200,"keys":400,"seed":1,"site":1500,"nested":3,"policy":"salt","salt":99}`,
		// A sharded line, a pre-sharding line, minimal lines, bad fields.
		`{"scheme":"mesh","clients":4,"ops":1200,"keys":400,"seed":1,"site":-1,"nested":-1,"policy":"drop","salt":0,"shards":2,"shard":1}`,
		`{"scheme":"ffccd","clients":4,"ops":100,"keys":64,"seed":1,"site":-1,"nested":-1,"policy":"drop","salt":0}`,
		`{"scheme":"stw"}`,
		`{"setting":"BzTree/8T/sfccd"}`,
		`{"scheme":"ffccd","shards":2,"shard":2}`,
		`{"scheme":"ffccd","shards":-3,"shard":0}`,
		`{"scheme":"espresso"}`,
		`{"scheme":null,"setting":"LL/1T/ffccd"}`,
		`{"scheme":"ffccd","setting":"LL/1T/ffccd"}`,
		`{"setting":"LL/1T/ffccd","seed":1,"typo_field":3}`,
		`{"setting":"LL/1T/ffccd","policy":"bogus"}`,
		`{"setting":"LL/0T/ffccd"}`, `{"setting":"LL/1T/"}`, `{"setting":"//"}`,
		`{"setting":"LL/1T/ffccd"} trailing`,
		"LL/0T/ffccd", "LL/9T/ffccd", "LL/100000T/ffccd", "LL/1T/", "//", "LL/+1T/ffccd", "LL/1T/ffccd/extra", "SS/1T/none",
		"", "{", "null", "[]", `"x"`, "7",
		// Serving settings, and a batch line that names one.
		"serve/ffccd", "serve/4S/stw", "serve/1S/ffccd", "serve/0S/ffccd", "serve/3000S/ffccd", "serve/", "serve/4S",
		`{"setting":"serve/ffccd"}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if s, err := faultinject.ParseSetting(line); err == nil && s.String() != line {
			t.Fatalf("ParseSetting(%q) accepted it as %q", line, s)
		}
		sched, err := faultinject.ParseSchedule(line)
		if err != nil {
			if sched != nil {
				t.Fatalf("ParseSchedule(%q) failed (%v) and still returned %#v", line, err, sched)
			}
			return
		}
		again, err := faultinject.ParseSchedule(sched.MarshalLine())
		if err != nil {
			t.Fatalf("ParseSchedule(%q) accepted, but its own line %s does not parse: %v", line, sched.MarshalLine(), err)
		}
		if again != sched {
			t.Fatalf("round trip of %q drifted:\n first:  %#v\n second: %#v", line, sched, again)
		}
	})
}
