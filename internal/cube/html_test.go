package cube

import (
	"bytes"
	"strings"
	"testing"

	"metascope/internal/pattern"
	"metascope/internal/profile"
)

func TestRenderHTMLWellFormed(t *testing.T) {
	r := tinyReport()
	var buf bytes.Buffer
	if err := r.RenderHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "</html>",
		"tiny", "Metric hierarchy",
		"Late Sender", "Grid Late Sender",
		"Call tree", "System tree",
		"MPI_Recv",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	// Balanced structural tags.
	for _, tag := range []string{"table", "details", "summary"} {
		open := strings.Count(out, "<"+tag+">") + strings.Count(out, "<"+tag+" ")
		if closed := strings.Count(out, "</"+tag+">"); open != closed {
			t.Errorf("unbalanced <%s>: %d open, %d closed", tag, open, closed)
		}
	}
}

func TestRenderHTMLEscapesNames(t *testing.T) {
	locs := []Loc{{Rank: 0, MetahostName: "A"}}
	r := New("evil <script>alert(1)</script>", FromMetricDefs(pattern.MetricTree()), locs)
	c := r.AddCall("fn<script>&", -1)
	r.Set(r.MetricIndex(pattern.KeyExecution), c, 0, 1.0)
	var buf bytes.Buffer
	if err := r.RenderHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "<script>alert") || strings.Contains(out, "fn<script>") {
		t.Fatalf("unescaped HTML injection")
	}
	if !strings.Contains(out, "&lt;script&gt;") {
		t.Errorf("expected escaped entities in output")
	}
}

func TestRenderHTMLHeatmap(t *testing.T) {
	r := tinyReport()
	acc := profile.NewAccumulator(profile.Config{Buckets: 8, Width: 0.5})
	acc.SetMetahostName(0, "FZJ")
	acc.SetMetahostName(1, "FH<BRS>") // exercises attribute escaping
	acc.SetMeta(pattern.KeyLateSender, profile.SeriesMeta{Name: "Late Sender", Unit: "sec"})
	acc.Series(profile.Key{Metric: pattern.KeyLateSender, Metahost: 0, Rank: 0}).Add(0.5, 1, 2)
	acc.Series(profile.Key{Metric: pattern.KeyLateSender, Metahost: 1, Rank: 1}).Add(2, 0.5, 1)
	r.Profile = acc.Snapshot("tiny")
	var buf bytes.Buffer
	if err := r.RenderHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Time-resolved severity",
		"8 intervals of 0.5 s",
		"<h3>Late Sender",
		"FZJ",
		"class=\"hc\"",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("heatmap HTML missing %q", want)
		}
	}
	if strings.Contains(out, "FH<BRS>") {
		t.Error("metahost name not escaped")
	}
	// The panel peak normalizes intensities: some cell must be fully
	// opaque and none may exceed alpha 1.
	if !strings.Contains(out, "rgba(204,51,51,1.000)") {
		t.Error("no cell at peak intensity")
	}
	for _, tag := range []string{"table", "tr", "td", "span", "h3"} {
		open := strings.Count(out, "<"+tag+">") + strings.Count(out, "<"+tag+" ")
		if closed := strings.Count(out, "</"+tag+">"); open != closed {
			t.Errorf("unbalanced <%s>: %d open, %d closed", tag, open, closed)
		}
	}
}

func TestRenderHTMLEmptyProfileOmitsHeatmap(t *testing.T) {
	// Both a nil profile and a profile without series omit the section
	// and still render well-formed HTML.
	for _, prof := range []*profile.Profile{
		nil,
		profile.NewAccumulator(profile.Config{}).Snapshot("empty"),
	} {
		r := tinyReport()
		r.Profile = prof
		var buf bytes.Buffer
		if err := r.RenderHTML(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if strings.Contains(out, "Time-resolved severity") {
			t.Errorf("heatmap section present for empty profile %v", prof)
		}
		if !strings.Contains(out, "</html>") {
			t.Errorf("HTML truncated")
		}
		for _, tag := range []string{"table", "details"} {
			open := strings.Count(out, "<"+tag+">") + strings.Count(out, "<"+tag+" ")
			if closed := strings.Count(out, "</"+tag+">"); open != closed {
				t.Errorf("unbalanced <%s>: %d open, %d closed", tag, open, closed)
			}
		}
	}
}

func TestRenderHTMLSectionOrdering(t *testing.T) {
	// Sections are ordered most-severe first: Grid LS (2.0) before the
	// plain LS (1.0 exclusive, 3.0 inclusive)… inclusive drives the
	// order, so Late Sender (3.0) precedes Grid Late Sender (2.0).
	r := tinyReport()
	var buf bytes.Buffer
	if err := r.RenderHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ls := strings.Index(out, "<summary>Late Sender</summary>")
	gls := strings.Index(out, "<summary>Grid Late Sender</summary>")
	if ls < 0 || gls < 0 {
		t.Fatalf("sections missing (ls=%d gls=%d)", ls, gls)
	}
	if ls > gls {
		t.Errorf("sections not ordered by severity")
	}
}
