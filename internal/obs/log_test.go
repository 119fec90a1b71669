package obs

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestLoggerFormat pins the logger's lines byte for byte, for every kind
// of value the repo logs: strings that need quoting and strings that do
// not, integers, floats, booleans, durations, errors, nil, slices and
// maps. Operators and tests grep these lines; a change here changes
// every one of them.
func TestLoggerFormat(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b)
	l.SetLevel(LevelDebug)
	inf := 1.0
	inf /= 0
	l.Info("archives written", "dir", "run1", "metahosts", 3)
	l.Warn("odd value", "note", "two words", "empty", "", "eq", "a=b")
	l.Info("strings", "quote", `say "hi"`, "nl", "a\nb", "tab", "a\tb", "micro", "12µs", "path", "/v1/jobs", "colon", "a:b")
	l.Debug("numbers", "int", 42, "neg", -7, "int64", int64(1)<<40, "uint64", uint64(1<<64-1),
		"f", 0.25, "big", 1e21, "small", 1.5e-7, "whole", 3.0, "inf", inf)
	l.Warn("misc", "t", true, "f", false, "d", 1500*time.Millisecond, "dz", time.Duration(0),
		"err", errors.New("replay: rank 1: boom"), "nilerr", error(nil), "nil", nil)
	l.Error("composite", "slice", []int{1, 2}, "strs", []string{"a"}, "map", map[string]int{"a": 1, "b": 2}, "empty", []int{})

	got := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	want := []string{
		`level=info msg="archives written" dir=run1 metahosts=3`,
		`level=warn msg="odd value" note="two words" empty="" eq="a=b"`,
		`level=info msg=strings quote="say \"hi\"" nl="a\nb" tab="a\tb" micro=12µs path=/v1/jobs colon=a:b`,
		`level=debug msg=numbers int=42 neg=-7 int64=1099511627776 uint64=18446744073709551615 f=0.25 big=1e+21 small=1.5e-07 whole=3 inf=+Inf`,
		`level=warn msg=misc t=true f=false d=1.5s dz=0s err="replay: rank 1: boom" nilerr=<nil> nil=<nil>`,
		`level=error msg=composite slice="[1 2]" strs=[a] map="map[a:1 b:2]" empty=[]`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\ngot  %s\nwant %s", i+1, got[i], want[i])
		}
	}
}

func TestLoggerLevels(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b)
	l.Debug("hidden")
	if b.Len() != 0 {
		t.Errorf("debug emitted at info level: %q", b.String())
	}
	l.SetLevel(LevelDebug)
	l.Debug("shown")
	if !strings.Contains(b.String(), "level=debug msg=shown") {
		t.Errorf("debug missing after SetLevel: %q", b.String())
	}
	b.Reset()
	l.SetLevel(LevelError)
	l.Info("hidden")
	l.Warn("hidden")
	l.Error("shown")
	if got := b.String(); got != "level=error msg=shown\n" {
		t.Errorf("error-level output = %q", got)
	}
}

// TestLoggerFatalExitsNonZero: Fatal writes one error line on the
// Default logger and exits with status 1. The exit happens in a child
// run of this test binary.
func TestLoggerFatalExitsNonZero(t *testing.T) {
	if os.Getenv("OBS_FATAL_CHILD") == "1" {
		Fatal("boom", "err", "broken")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLoggerFatalExitsNonZero$")
	cmd.Env = append(os.Environ(), "OBS_FATAL_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child ended with %v, want exit status 1", err)
	}
	// A coverage-instrumented child may warn after the line.
	if got := stderr.String(); !strings.HasPrefix(got, "level=error msg=boom err=broken\n") {
		t.Errorf("fatal output = %q", got)
	}
}
