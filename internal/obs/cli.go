package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux
	"os"
	"strings"

	"metascope/internal/obs/flight"
)

// CLIConfig carries the shared observability flags every metascope
// command registers: -v (debug logging), -metrics-out (snapshot file,
// JSON or Prometheus text by extension), -pprof (live profiling and
// /metrics endpoint), and -trace-out (flight recording, Chrome JSON
// or metascope trace archive by extension).
type CLIConfig struct {
	Tool       string
	Verbose    bool
	MetricsOut string
	PprofAddr  string
	TraceOut   string

	// FlightArchive, when set by the command, exports a flight
	// recording as a metascope trace archive under the given directory
	// (the -trace-out dogfood path). The hook lives here because obs
	// cannot import the trace/replay layers that define the archive
	// format; commands that link replay assign
	// replay.WriteFlightArchive.
	FlightArchive func(rec *flight.Recorder, dir string) error

	rec *Recorder
}

// RegisterCLIFlags registers the shared flags on fs (typically
// flag.CommandLine) for the given recorder (nil selects Default).
// Call Start after flag parsing and Flush before exiting.
func RegisterCLIFlags(tool string, fs *flag.FlagSet, rec *Recorder) *CLIConfig {
	c := &CLIConfig{Tool: tool, rec: OrDefault(rec)}
	fs.BoolVar(&c.Verbose, "v", false, "verbose (debug-level) logging")
	fs.StringVar(&c.MetricsOut, "metrics-out", "",
		"write a metrics snapshot to this file on exit (.json = JSON with phase breakdown, otherwise Prometheus text)")
	fs.StringVar(&c.PprofAddr, "pprof", "",
		"serve net/http/pprof and Prometheus /metrics on this address (e.g. localhost:6060)")
	fs.StringVar(&c.TraceOut, "trace-out", "",
		"record a flight trace of the tool's own pipeline and write it on exit (.json = Chrome trace for Perfetto, otherwise a metascope trace archive directory for metascope analyze)")
	return c
}

// Recorder returns the recorder the flags are bound to.
func (c *CLIConfig) Recorder() *Recorder { return c.rec }

// Start applies the parsed flags: raises the log level, enables the
// flight recorder when -trace-out was given, and, when -pprof was
// given, serves the profiling endpoints in the background.
func (c *CLIConfig) Start() {
	if c.Verbose {
		c.rec.Log.SetLevel(LevelDebug)
	}
	if c.TraceOut != "" {
		c.rec.Flight.Enable(0)
	}
	// The runtime gauges cost nothing until a snapshot or a /metrics
	// scrape renders them — metascope serve's included, which takes
	// no obs flag to be scraped.
	RegisterRuntimeGauges(c.rec.Reg)
	if c.PprofAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			c.rec.Reg.WritePrometheus(w)
		})
		mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			WriteDebugJSON(w, c.rec)
		})
		go func() {
			if err := http.ListenAndServe(c.PprofAddr, mux); err != nil {
				c.rec.Log.Error("pprof server failed", "addr", c.PprofAddr, "err", err)
			}
		}()
		c.rec.Log.Info("profiling endpoints up", "addr", c.PprofAddr,
			"pprof", "/debug/pprof/", "metrics", "/metrics")
	}
}

// Flush closes the recorder (freezing the flight recording) and writes
// the outputs selected by -metrics-out and -trace-out; the runtime
// gauges in the snapshot read the state at exit. Without either flag it
// only closes the recorder.
func (c *CLIConfig) Flush() error {
	c.rec.Close()
	if err := c.flushTrace(); err != nil {
		return err
	}
	if c.MetricsOut == "" {
		return nil
	}
	f, err := os.Create(c.MetricsOut)
	if err != nil {
		return fmt.Errorf("obs: creating metrics file: %w", err)
	}
	if strings.HasSuffix(c.MetricsOut, ".json") {
		err = c.rec.WriteJSON(f)
	} else {
		err = c.rec.Reg.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("obs: writing metrics to %s: %w", c.MetricsOut, err)
	}
	c.rec.Log.Debug("metrics snapshot written", "path", c.MetricsOut)
	return nil
}

// flushTrace exports the flight recording selected by -trace-out:
// Chrome trace JSON for *.json paths, a metascope trace archive (via
// the FlightArchive hook) otherwise.
func (c *CLIConfig) flushTrace() error {
	if c.TraceOut == "" {
		return nil
	}
	if strings.HasSuffix(c.TraceOut, ".json") {
		f, err := os.Create(c.TraceOut)
		if err != nil {
			return fmt.Errorf("obs: creating trace file: %w", err)
		}
		err = flight.WriteChrome(f, c.rec.Flight.Snapshot())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("obs: writing flight trace to %s: %w", c.TraceOut, err)
		}
	} else {
		if c.FlightArchive == nil {
			return fmt.Errorf("obs: %s cannot write trace archives; use a .json -trace-out path", c.Tool)
		}
		if err := c.FlightArchive(c.rec.Flight, c.TraceOut); err != nil {
			return fmt.Errorf("obs: writing flight archive to %s: %w", c.TraceOut, err)
		}
	}
	st := c.rec.Flight.Stats()
	c.rec.Log.Info("flight recording written", "path", c.TraceOut,
		"events", st.Events, "writers", st.Writers, "dropped", st.Dropped)
	return nil
}

// DebugSnapshot is the /debug/obs JSON document: the recorder's phase
// breakdown and metric families plus the flight-recorder census.
type DebugSnapshot struct {
	Snapshot
	Flight flight.Stats `json:"flight"`
}

// WriteDebugJSON writes the recorder's debug snapshot (phases,
// metrics, flight stats) as indented JSON.
func WriteDebugJSON(w io.Writer, r *Recorder) error {
	r = OrDefault(r)
	data, err := json.MarshalIndent(DebugSnapshot{Snapshot: r.Snapshot(), Flight: r.Flight.Stats()}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
