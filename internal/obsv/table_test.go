package obsv

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Add("alpha", 3.14159)
	tb.Add("a-much-longer-name", 42)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "3.14") {
		t.Errorf("table output wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines", len(lines))
	}
}
