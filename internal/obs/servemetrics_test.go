package obs_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"metascope/internal/obs"
	"metascope/internal/serve"
)

// TestServeMetricsCarryRuntimeGauges starts the shared flags with no
// obs flag given, the way metascope serve runs by default, and scrapes
// the service's /metrics: the five runtime gauges are there, and the
// whole exposition passes the Prometheus lint.
func TestServeMetricsCarryRuntimeGauges(t *testing.T) {
	cli := obs.NewTestCLI(t)
	cli.Start()
	srv := serve.New(serve.Options{Obs: cli.Recorder()})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := obs.LintPrometheus(t, string(body))
	for _, name := range []string{
		"go_heap_alloc_bytes", "go_heap_sys_bytes", "go_goroutines",
		"go_gc_pause_seconds_total", "go_gc_cycles_total",
	} {
		if s := samples[name]; len(s) != 1 || !strings.HasPrefix(s[0], name+" ") {
			t.Errorf("/metrics carries %q for %s, want one label-less sample", s, name)
		}
	}
}
