// OpenMetrics text exposition of a Collector: every process's histograms and
// counter groups, plus the windowed time series with OpenMetrics-style
// exemplars (the worst request of each window, tagged with its dominant stall
// cause). Served on the -httpobs endpoint at /metrics and
// format-checked by TestOpenMetricsConformance.
package obsv

import (
	"fmt"
	"io"
	"strings"
)

// omFamily is one metric family: HELP/TYPE header plus contiguous samples,
// as the OpenMetrics exposition format requires.
type omFamily struct {
	name    string
	typ     string // "counter" | "gauge" | "summary"
	help    string
	samples []string
}

type omWriter struct {
	fams  map[string]*omFamily
	order []string
}

// family returns the family called name, declaring it on first use. A name
// that a family of another type holds, or that differs from a declared
// family's name only by a sample suffix (which would make sample names
// ambiguous), has the type appended until it is free: a histogram named
// after a counter group still gets a family of its own. The name declared
// first keeps it, so WriteOpenMetrics declares its fixed families first.
func (o *omWriter) family(name, typ, help string) *omFamily {
	for {
		f, ok := o.fams[name]
		if ok && f.typ == typ {
			return f
		}
		if !ok && !o.suffixClash(name) {
			break
		}
		name += "_" + typ
	}
	f := &omFamily{name: name, typ: typ, help: help}
	if o.fams == nil {
		o.fams = map[string]*omFamily{}
	}
	o.fams[name] = f
	o.order = append(o.order, name)
	return f
}

// omSuffixes are the suffixes sample names add to their family's name.
var omSuffixes = [...]string{"_total", "_count", "_sum"}

// suffixClash reports whether name is a declared family's name plus a sample
// suffix, or a declared family's name is name plus one.
func (o *omWriter) suffixClash(name string) bool {
	for _, suf := range omSuffixes {
		if _, ok := o.fams[name+suf]; ok {
			return true
		}
		if base, ok := strings.CutSuffix(name, suf); ok && o.fams[base] != nil {
			return true
		}
	}
	return false
}

// omName sanitizes a metric or label name to the OpenMetrics charset.
func omName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// omEscape escapes a label value or HELP text per the exposition format.
func omEscape(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type omLabel struct{ k, v string }

func omLabels(ls []omLabel) string {
	if len(ls) == 0 {
		return ""
	}
	parts := make([]string, len(ls))
	for i, l := range ls {
		// omEscape already applies the exposition-format escapes; %q would
		// double-escape them.
		parts[i] = omName(l.k) + `="` + omEscape(l.v) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// sample appends one sample line. suffix is appended to the family name
// (e.g. "_total", "_count"); exemplar, when non-empty, is appended after the
// value ("# {labels} value" syntax).
func (f *omFamily) sample(suffix string, ls []omLabel, value string, exemplar string) {
	line := f.name + suffix + omLabels(ls) + " " + value
	if exemplar != "" {
		line += " # " + exemplar
	}
	f.samples = append(f.samples, line)
}

func omExemplar(ls []omLabel, value float64) string {
	return fmt.Sprintf("{%s} %g", strings.TrimSuffix(strings.TrimPrefix(omLabels(ls), "{"), "}"), value)
}

// WriteOpenMetrics renders the collector in the OpenMetrics text exposition
// format: HELP/TYPE headers, one contiguous block of samples per family,
// label-escaped process/scheme names, per-window series with worst-request
// exemplars on the window request counters, and a final # EOF terminator.
func (c *Collector) WriteOpenMetrics(w io.Writer) error {
	names, procs := c.snapshot()
	var om omWriter

	// The writer's own families are declared before any name taken from a
	// process, and counter groups (the device's among them) before
	// histograms, so a histogram that clashes with either is the one renamed.
	traces := om.family("ffccd_trace_events", "counter", "Trace events recorded per process.")
	req := om.family("ffccd_window_requests", "counter",
		"Requests completed per simulated-time window; exemplar = worst request with its dominant stall cause.")
	p999 := om.family("ffccd_window_p999_cycles", "gauge",
		"Per-window p999 latency in simulated cycles.")
	p50 := om.family("ffccd_window_p50_cycles", "gauge",
		"Per-window p50 latency in simulated cycles.")
	decomp := om.family("ffccd_window_cycles", "gauge",
		"Per-window cycle decomposition (class = app|interf|stall|queue).")
	overlay := om.family("ffccd_window_overlay", "gauge",
		"1 when a GC overlay interval (kind = stw|epoch) intersects the window.")
	snaps := make([]Snapshot, len(procs))
	for pid, o := range procs {
		snaps[pid] = o.Metrics.Snapshot()
		for _, g := range snaps[pid].Groups {
			om.family("ffccd_"+omName(g.Name), "counter", "Counter group "+g.Name+".")
		}
	}

	for pid, o := range procs {
		pl := []omLabel{{"process", names[pid]}}
		traces.sample("_total", pl, fmt.Sprintf("%d", o.Tracer.EventCount()), "")

		snap := snaps[pid]
		for _, h := range snap.Hists {
			f := om.family("ffccd_"+omName(h.Name), "summary",
				"Cycle-domain histogram "+h.Name+" (simulated cycles).")
			for _, q := range []struct {
				q string
				v uint64
			}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.95", h.P95}, {"0.99", h.P99}, {"0.999", h.P999}} {
				f.sample("", append(pl[:1:1], omLabel{"quantile", q.q}), fmt.Sprintf("%d", q.v), "")
			}
			f.sample("_count", pl, fmt.Sprintf("%d", h.Count), "")
			f.sample("_sum", pl, fmt.Sprintf("%d", h.Sum), "")
		}
		for _, g := range snap.Groups {
			f := om.family("ffccd_"+omName(g.Name), "counter",
				"Counter group "+g.Name+".")
			for i, k := range g.Keys {
				f.sample("_total", append(pl[:1:1], omLabel{"key", k}),
					fmt.Sprintf("%d", g.Vals[i]), "")
			}
		}

		if o.Series == nil {
			continue
		}
		ts := o.Series
		sl := append(pl[:1:1], omLabel{"scheme", ts.Scheme()})
		for _, win := range ts.Windows() {
			wl := append(sl[:2:2], omLabel{"window", fmt.Sprintf("%d", win.Index)})
			ex := ""
			if len(win.Exemplars) > 0 {
				e := win.Exemplars[0]
				exl := []omLabel{
					{"dominant", e.Cause.Dominant()},
					{"phase", e.Cause.Phase},
					{"epoch", fmt.Sprintf("%d", e.Cause.Epoch)},
					{"cache_set", fmt.Sprintf("%d", e.Cause.CacheSet)},
				}
				ex = omExemplar(exl, float64(e.Latency))
			}
			req.sample("_total", wl, fmt.Sprintf("%d", win.Count), ex)
			p999.sample("", wl, fmt.Sprintf("%d", win.P999), "")
			p50.sample("", wl, fmt.Sprintf("%d", win.P50), "")
			for _, cl := range []struct {
				name string
				v    uint64
			}{{"app", win.AppCycles}, {"interf", win.InterfCycles}, {"stall", win.StallCycles}, {"queue", win.QueueCycles}} {
				decomp.sample("", append(wl[:3:3], omLabel{"class", cl.name}),
					fmt.Sprintf("%d", cl.v), "")
			}
			for _, ov := range []struct {
				kind string
				v    bool
			}{{"stw", win.STWOverlap}, {"epoch", win.EpochOverlap}} {
				overlay.sample("", append(wl[:3:3], omLabel{"kind", ov.kind}),
					fmt.Sprintf("%d", boolBit(ov.v)), "")
			}
		}
	}

	for _, name := range om.order {
		f := om.fams[name]
		if len(f.samples) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, omEscape(f.help), f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := io.WriteString(w, s+"\n"); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}
