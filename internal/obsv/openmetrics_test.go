package obsv

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ffccd/internal/sim"
)

// omTestCollector builds a collector exercising every exported family:
// histograms, groups, and a windowed series whose scheme name needs
// every label-escape rule (backslash, quote, newline).
func omTestCollector(extraOps uint64) (*Collector, string) {
	scheme := "ff\"c\\cd\nx"
	cfg := sim.DefaultConfig()
	col := NewCollector(0)
	o := col.NewObs("serving/" + scheme)
	ctx := sim.NewCtx(&cfg)
	o.Tracer.Name(ctx, "loader")
	o.Tracer.Instant(ctx, KindTrigger, 1)
	o.Metrics.Hist("read_barrier_cycles").Observe(40)
	o.Metrics.RegisterGroup("device", func() map[string]uint64 {
		return map[string]uint64{"loads": 10, "clwbs": 2}
	})
	ts := NewTimeSeries(scheme, 1000, 2)
	for i := uint64(0); i < 5+extraOps; i++ {
		s := sampleAt(i*400+100, 20+i, i)
		s.Cause.Scheme = scheme
		if i == 2 {
			s.Cause.STWWait, s.Cause.STWRef = 500, 900
		}
		ts.ObserveOp(s)
	}
	ts.AddInterval(IntervalSTW, 850, 900, 1)
	o.Series = ts
	return col, scheme
}

// parseOM splits an OpenMetrics exposition into families and samples,
// failing the test on any structural violation: samples before their
// family's HELP/TYPE, non-contiguous families, names that map to no
// declared family, or a missing final # EOF.
func parseOM(t *testing.T, text string) map[string]float64 {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if lines[len(lines)-1] != "# EOF" {
		t.Fatalf("last line %q, want # EOF", lines[len(lines)-1])
	}
	helped, typed := map[string]string{}, map[string]string{}
	samples := map[string]float64{}
	current := "" // family whose contiguous sample block we are in
	done := map[string]bool{}
	for _, line := range lines[:len(lines)-1] {
		if h, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(h, " ")
			if helped[name] != "" {
				t.Fatalf("duplicate HELP for %s", name)
			}
			helped[name] = help
			continue
		}
		if ty, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(ty, " ")
			if helped[name] == "" {
				t.Fatalf("TYPE before HELP for %s", name)
			}
			typed[name] = typ
			if done[name] {
				t.Fatalf("family %s re-opened (samples must be contiguous)", name)
			}
			if current != "" {
				done[current] = true
			}
			current = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		// Sample: name[{labels}] value [# exemplar]. A quoted label value
		// may hold spaces, braces and " # ".
		key, rest, ok := cutSampleKey(line)
		if !ok {
			t.Fatalf("malformed sample %q", line)
		}
		valStr, _, _ := strings.Cut(rest, " # ")
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample %q value: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_total", "_count", "_sum"} {
			if b, ok := strings.CutSuffix(name, suf); ok && typed[b] != "" {
				base = b
				break
			}
		}
		if typed[base] == "" {
			t.Fatalf("sample %q belongs to no declared family", line)
		}
		if base != current {
			t.Fatalf("sample for %s inside %s's block", base, current)
		}
		if typed[base] == "counter" && !strings.HasPrefix(strings.TrimPrefix(name, base), "_total") {
			t.Fatalf("counter sample %q lacks _total", line)
		}
		samples[key] = val
	}
	return samples
}

// cutSampleKey splits a sample line after its name and label set, skipping
// quoted label values, and the space that follows them.
func cutSampleKey(line string) (key, rest string, ok bool) {
	i := strings.IndexAny(line, "{ ")
	if i >= 0 && line[i] == '{' {
		quoted := false
		for i++; i < len(line) && (quoted || line[i] != '}'); i++ {
			switch {
			case line[i] == '\\' && quoted:
				i++
			case line[i] == '"':
				quoted = !quoted
			}
		}
		i++
	}
	if i < 0 || i >= len(line) || line[i] != ' ' {
		return "", "", false
	}
	return line[:i], line[i+1:], true
}

// sampleLabel returns the unescaped value of label k in a sample key.
func sampleLabel(key, k string) (string, bool) {
	_, labels, ok := strings.Cut(key, "{")
	for ok {
		var name string
		if name, labels, ok = strings.Cut(labels, `="`); !ok {
			break
		}
		var v strings.Builder
		i := 0
		for ; i < len(labels) && labels[i] != '"'; i++ {
			if labels[i] == '\\' && i+1 < len(labels) {
				i++
				if labels[i] == 'n' {
					v.WriteByte('\n')
					continue
				}
			}
			v.WriteByte(labels[i])
		}
		if name == k {
			return v.String(), true
		}
		labels = strings.TrimPrefix(labels[min(i+1, len(labels)):], ",")
	}
	return "", false
}

func TestOpenMetricsConformance(t *testing.T) {
	col, scheme := omTestCollector(0)
	var buf bytes.Buffer
	if err := col.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	samples := parseOM(t, out)

	// Label escaping: the hostile scheme name must round-trip through the
	// documented escape sequences, never raw.
	if want := `scheme="ff\"c\\cd\nx"`; !strings.Contains(out, want) {
		t.Fatalf("escaped scheme label %q not found in:\n%s", want, out)
	}
	if strings.Contains(out, scheme) {
		t.Fatal("raw (unescaped) scheme value leaked into the exposition")
	}

	// Exemplar syntax on the worst request of a window, with its cause labels.
	if !strings.Contains(out, `_total{`) || !strings.Contains(out, ` # {dominant="stw"`) {
		t.Fatalf("window exemplar missing:\n%s", out)
	}

	// Spot-check families all made it.
	for _, want := range []string{
		"ffccd_trace_events_total{", "ffccd_read_barrier_cycles_count{",
		`ffccd_device_total{process="serving/ff\"c\\cd\nx",key="clwbs"}`,
		"ffccd_window_requests_total{", "ffccd_window_p999_cycles{", "ffccd_window_p50_cycles{",
		`ffccd_window_cycles{`, `ffccd_window_overlay{`,
	} {
		found := false
		for k := range samples {
			if strings.Contains(k, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no sample matching %q", want)
		}
	}

	// Counter monotonicity: a collector that has seen strictly more work
	// must never decrease any counter sample.
	col2, _ := omTestCollector(3)
	buf.Reset()
	if err := col2.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	samples2 := parseOM(t, buf.String())
	checked := 0
	for k, v1 := range samples {
		if !strings.Contains(k, "_total") {
			continue
		}
		v2, ok := samples2[k]
		if !ok {
			continue // windows beyond the first run's range are new series
		}
		checked++
		if v2 < v1 {
			t.Fatalf("counter %s decreased %v -> %v", k, v1, v2)
		}
	}
	if checked == 0 {
		t.Fatal("monotonicity check matched no counter samples")
	}
}

func TestOpenMetricsNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"read_barrier_cycles": "read_barrier_cycles",
		"p99.9-latency":       "p99_9_latency",
		"9lives":              "_lives",
	} {
		if got := omName(in); got != want {
			t.Fatalf("omName(%q) = %q want %q", in, got, want)
		}
	}
	if got := omEscape("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("omEscape = %q", got)
	}
	ex := omExemplar([]omLabel{{"dominant", "stw"}}, 42)
	if ex != fmt.Sprintf("{dominant=%q} 42", "stw") {
		t.Fatalf("omExemplar = %q", ex)
	}
}

// FuzzOpenMetrics writes a collector whose two processes' names and
// histogram names are fuzzed — quotes, backslashes, newlines, bytes outside
// the metric-name charset, names that sanitize onto another family's —
// through Collector.WriteOpenMetrics; the first process also carries a time
// series. parseOM is the oracle: the exposition must parse and end in # EOF,
// and each process's label value must read back as its name (an invalid
// UTF-8 byte as U+FFFD). The writer's own families and the device group keep
// their names whatever the histograms are called.
func FuzzOpenMetrics(f *testing.F) {
	f.Add("serving/ffccd", "fig14/LL", "read_barrier_cycles", "stw_pause_cycles")
	f.Add("ff\"c\\cd\nx", "a # b} 1", "p99.9-latency", "9lives")
	f.Add("", "", "trace_events", "device")
	f.Add("p", "p", "x", "x_count")
	f.Add("\xff\\", "q\\\"", "window_requests_total", "a\nb")
	f.Add("serving/ffccd", "p", "window_requests_total", "device_total")
	f.Add("p", "q", "window_cycles_sum", "trace_events_total")
	f.Fuzz(func(t *testing.T, proc1, proc2, hist1, hist2 string) {
		col := NewCollector(0)
		procs := []string{proc1, proc2}
		for i, name := range procs {
			o := col.NewObs(name)
			o.Metrics.Hist(hist1).Observe(40)
			o.Metrics.Hist(hist2).Observe(7)
			o.Metrics.RegisterGroup("device", func() map[string]uint64 {
				return map[string]uint64{"loads": 10}
			})
			if i == 0 {
				o.Series = NewTimeSeries(proc2, 1000, 2)
				o.Series.ObserveOp(sampleAt(100, 20, 1))
			}
		}
		var buf bytes.Buffer
		if err := col.WriteOpenMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		samples := parseOM(t, buf.String())
		for _, fixed := range []string{
			"ffccd_trace_events counter", "ffccd_device counter",
			"ffccd_window_requests counter", "ffccd_window_p999_cycles gauge", "ffccd_window_p50_cycles gauge",
			"ffccd_window_cycles gauge", "ffccd_window_overlay gauge",
		} {
			if !strings.Contains(buf.String(), "\n# TYPE "+fixed+"\n") {
				t.Fatalf("no family declared as %q", fixed)
			}
		}
		var got []string
		for key := range samples {
			if strings.HasPrefix(key, "ffccd_trace_events_total{") {
				v, ok := sampleLabel(key, "process")
				if !ok {
					t.Fatalf("sample %q has no process label", key)
				}
				got = append(got, v)
			}
		}
		want := []string{string([]rune(proc1)), string([]rune(proc2))}
		slices.Sort(got)
		slices.Sort(want)
		if want = slices.Compact(want); !slices.Equal(got, want) {
			t.Fatalf("process labels read back %q, want %q", got, want)
		}
	})
}
