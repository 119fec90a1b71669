package obs

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusExpositionLint is a lint-style conformance pass over
// WritePrometheus output (text exposition format 0.0.4), run against
// a registry exercising counters, gauges, labeled families, escaping
// hazards, and histograms:
//
//   - every sample line parses as <name>{labels} <value>,
//   - HELP and TYPE comments precede every sample of their family and
//     appear exactly once per family,
//   - histograms expose the full _bucket/_sum/_count triplet, with a
//     +Inf bucket equal to _count and non-decreasing cumulative
//     buckets,
//   - label values escape backslash, double-quote, and newline,
//   - families and series are emitted in sorted, deterministic order.
func TestPrometheusExpositionLint(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "requests served", "method", "code").With("get", "200").Add(3)
	r.Counter("app_requests_total", "requests served", "method", "code").With("post", "500").Inc()
	r.Gauge("app_temperature", "current temperature").Set(-1.5)
	r.Gauge("zz_last", "sorts last").Set(1)
	r.Counter("app_tricky_total", "label escaping", "path").
		With("a\\b\"c\nd").Add(1)
	h := r.Histogram("app_latency_seconds", "request latency", []float64{0.1, 1, 10}, "route")
	h.With("home").Observe(0.05)
	h.With("home").Observe(5)
	h.With("home").Observe(50)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	samples := LintPrometheus(t, out)

	// Histogram triplet: every finite bucket, a +Inf bucket equal to
	// _count, and non-decreasing cumulative counts.
	var bucketVals []string
	var sum, count string
	for _, line := range samples["app_latency_seconds"] {
		switch {
		case strings.HasPrefix(line, "app_latency_seconds_bucket"):
			bucketVals = append(bucketVals, line)
		case strings.HasPrefix(line, "app_latency_seconds_sum"):
			sum = line
		case strings.HasPrefix(line, "app_latency_seconds_count"):
			count = line
		}
	}
	if len(bucketVals) != 4 { // 0.1, 1, 10, +Inf
		t.Fatalf("histogram exposes %d buckets, want 4:\n%s", len(bucketVals), strings.Join(bucketVals, "\n"))
	}
	if !strings.Contains(bucketVals[3], `le="+Inf"`) {
		t.Fatalf("last bucket is not +Inf: %q", bucketVals[3])
	}
	if sum == "" || count == "" {
		t.Fatalf("histogram missing _sum or _count:\n%s", out)
	}
	if !strings.HasSuffix(count, " 3") || !strings.HasSuffix(bucketVals[3], " 3") {
		t.Fatalf("+Inf bucket and _count must both read 3:\n%s\n%s", bucketVals[3], count)
	}
	prev := -1
	for _, b := range bucketVals {
		fields := strings.Fields(b)
		v, err := strconv.Atoi(fields[len(fields)-1])
		if err != nil {
			t.Fatalf("bucket value unparseable: %q", b)
		}
		if v < prev {
			t.Fatalf("cumulative buckets decrease:\n%s", strings.Join(bucketVals, "\n"))
		}
		prev = v
	}

	// Label escaping: backslash, quote, newline.
	if !strings.Contains(out, `path="a\\b\"c\nd"`) {
		t.Fatalf("label escaping wrong; output:\n%s", out)
	}

	// Series of one family are sorted by label values.
	reqs := samples["app_requests_total"]
	if len(reqs) != 2 || !(reqs[0] < reqs[1]) {
		t.Fatalf("labeled series not sorted:\n%s", strings.Join(reqs, "\n"))
	}
}

// LintPrometheus checks Prometheus text exposition out line by line —
// every sample parses, HELP and TYPE come once per family and before
// its samples, histogram samples are suffixed and bucketed, families
// arrive sorted — and returns each family's sample lines in order. It
// is exported for the package's external tests.
func LintPrometheus(t testing.TB, out string) map[string][]string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")

	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.e+Inf-]+)$`)
	metricOf := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) {
				return strings.TrimSuffix(name, suf)
			}
		}
		return name
	}

	helped := map[string]bool{}
	typed := map[string]bool{}
	typeOf := map[string]string{}
	var familyOrder []string
	samples := map[string][]string{} // family -> sample lines in order
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed HELP: %q", i, line)
			}
			fam := parts[2]
			if helped[fam] {
				t.Fatalf("line %d: duplicate HELP for %s", i, fam)
			}
			if typed[fam] || len(samples[fam]) > 0 {
				t.Fatalf("line %d: HELP for %s after TYPE or samples", i, fam)
			}
			helped[fam] = true
			if strings.ContainsAny(parts[3], "\n") {
				t.Fatalf("line %d: HELP text holds a newline", i)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i, line)
			}
			fam, kind := parts[2], parts[3]
			if typed[fam] {
				t.Fatalf("line %d: duplicate TYPE for %s", i, fam)
			}
			if len(samples[fam]) > 0 {
				t.Fatalf("line %d: TYPE for %s after its samples", i, fam)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unknown TYPE %q", i, kind)
			}
			typed[fam] = true
			typeOf[fam] = kind
			familyOrder = append(familyOrder, fam)
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", i, line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: unparseable sample %q", i, line)
			}
			fam := metricOf(m[1])
			if typeOf[fam] == "histogram" {
				switch {
				case strings.HasSuffix(m[1], "_bucket"):
					if !strings.Contains(m[2], `le="`) {
						t.Fatalf("line %d: histogram bucket without le label: %q", i, line)
					}
				case m[1] == fam:
					t.Fatalf("line %d: bare sample %q for histogram family", i, m[1])
				}
			}
			if !typed[fam] {
				t.Fatalf("line %d: sample %q precedes its TYPE", i, m[1])
			}
			samples[fam] = append(samples[fam], line)
		}
	}

	// Families arrive sorted (deterministic scrape output).
	if !sort.StringsAreSorted(familyOrder) {
		t.Fatalf("families not sorted: %v", familyOrder)
	}
	for fam := range samples {
		if !helped[fam] {
			t.Fatalf("family %s has samples but no HELP", fam)
		}
	}
	return samples
}
