package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func newTestCLI(t *testing.T, args ...string) *CLIConfig {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cli := RegisterCLIFlags("testtool", fs, NewRecorder())
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cli
}

// NewTestCLI exposes newTestCLI to the package's external tests.
var NewTestCLI = newTestCLI

func TestFlushJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.json")
	cli := newTestCLI(t, "-metrics-out", out)
	rec := cli.Recorder()
	rec.Reg.Counter("x_total", "x").Add(2)
	rec.Phases.Record(time.Second, "replay")
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Phases) != 1 || snap.Phases[0].Path != "replay" {
		t.Errorf("phases = %+v", snap.Phases)
	}
	if len(snap.Metrics) != 1 || snap.Metrics[0].Name != "x_total" {
		t.Errorf("metrics = %+v", snap.Metrics)
	}
}

func TestFlushPrometheusText(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.prom")
	cli := newTestCLI(t, "-metrics-out", out)
	cli.Recorder().Reg.Gauge("y", "y gauge").Set(4)
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# TYPE y gauge\ny 4\n") {
		t.Errorf("prometheus output = %q", string(data))
	}
}

func TestFlushWithoutFlagIsNoop(t *testing.T) {
	if err := newTestCLI(t).Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestVerboseRaisesLevel(t *testing.T) {
	cli := newTestCLI(t, "-v")
	cli.Start()
	if got := cli.Recorder().Log.Level(); got != LevelDebug {
		t.Errorf("level after -v = %v, want debug", got)
	}
}
