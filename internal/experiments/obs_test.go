package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ffccd/internal/obsv"
)

// TestOpenMetricsCarriesEveryProcessMetric runs a tiny traced Figure 5 and
// checks that /metrics's exposition holds every number of every run's
// registry: one _count sample per histogram and one _total sample per group
// key, each labelled with its process.
func TestOpenMetricsCarriesEveryProcessMetric(t *testing.T) {
	col := obsv.NewCollector(0)
	SetObsCollector(col)
	defer SetObsCollector(nil)
	if _, err := Figure5(0.0005); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := col.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{} // sample name and labels → value
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, _ := strings.Cut(line, " ")
		samples[k] = v
	}

	names, procs := col.Processes()
	if len(procs) == 0 {
		t.Fatal("traced Figure 5 registered no process")
	}
	checked := 0
	for i, o := range procs {
		snap := o.Metrics.Snapshot()
		for _, h := range snap.Hists {
			checkSample(t, samples, fmt.Sprintf("ffccd_%s_count{process=%q}", h.Name, names[i]), h.Count)
			checked++
		}
		for _, g := range snap.Groups {
			for j, k := range g.Keys {
				checkSample(t, samples, fmt.Sprintf("ffccd_%s_total{process=%q,key=%q}", g.Name, names[i], k), g.Vals[j])
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no histogram or group to check; the comparison is vacuous")
	}
}

func checkSample(t *testing.T, samples map[string]string, key string, want uint64) {
	t.Helper()
	got, ok := samples[key]
	if !ok {
		t.Errorf("/metrics has no sample %s", key)
	} else if got != fmt.Sprint(want) {
		t.Errorf("%s = %s, want %d", key, got, want)
	}
}
