package harness

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	// Header and separator align with widest cells.
	if !strings.HasPrefix(lines[1], "name   value") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "-----  -----") {
		t.Errorf("separator = %q", lines[2])
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	var sb strings.Builder
	tb.Render(&sb)
	if !strings.Contains(sb.String(), "only") {
		t.Error("row lost")
	}
}

func TestTableNotes(t *testing.T) {
	tb := NewTable("x", "a")
	tb.Notes = "hello"
	var sb strings.Builder
	tb.Render(&sb)
	if !strings.Contains(sb.String(), "note: hello") {
		t.Error("missing notes")
	}
}

func TestFormatters(t *testing.T) {
	if F(1.234) != "1.23" {
		t.Errorf("F = %q", F(1.234))
	}
	if B(true) != "yes" || B(false) != "no" {
		t.Error("B broken")
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	if s.Mean() != 0 {
		t.Error("empty series should report a zero mean")
	}
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
}

func TestSeriesAddInt(t *testing.T) {
	var s Series
	s.AddInt(7)
	if s.Mean() != 7 {
		t.Errorf("AddInt: mean = %v", s.Mean())
	}
}
