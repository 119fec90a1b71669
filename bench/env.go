package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment is the header printed above every table: what the
// numbers were measured on and with, so two outputs can be compared
// knowingly.
type environment struct {
	workload string
	seed     int64
	ops      int
	trace    bool

	nproc      int
	gomaxprocs int
	goVersion  string
	gogc       string
	kernel     string
	cpu        string
	commit     string

	events       int
	archiveBytes int64
	digest       string

	hwmReset                bool
	setupSeconds            []float64 // every set-up round
	timedSeconds            float64   // wall time of the timed phase, untimed collections and checks included
	calibBefore, calibAfter float64   // ms
}

func newEnvironment(w workload, o options) *environment {
	e := &environment{
		workload: w.name, seed: o.seed, trace: o.trace,
		ops:        o.ops,
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		gogc:       os.Getenv("GOGC"),
		kernel:     firstLine("/proc/sys/kernel/osrelease"),
		cpu:        cpuModel(),
		commit:     gitCommit(),
	}
	if e.ops <= 0 {
		e.ops = max(4, int(math.Round(w.opsPerSecond*float64(o.seconds))))
	}
	if e.gogc == "" {
		e.gogc = "100 (default)"
	}
	return e
}

func (e *environment) print(out io.Writer) {
	fmt.Fprintf(out, "# workload=%s seed=%d ops=%d trace=%v\n", e.workload, e.seed, e.ops, e.trace)
	fmt.Fprintf(out, "# input: %d events, %d bytes, digest %.12s\n", e.events, e.archiveBytes, e.digest)
	fmt.Fprintf(out, "# nproc=%d GOMAXPROCS=%d go=%s GOGC=%s kernel=%s cpu=%q commit=%s\n",
		e.nproc, e.gomaxprocs, e.goVersion, e.gogc, e.kernel, e.cpu, e.commit)
	rss := "reset before every operation: peak_rss_mb is the median operation's high-water mark"
	if !e.hwmReset {
		rss = "reset refused: peak_rss_mb is the whole-process VmHWM, set-up included"
	}
	fmt.Fprintf(out, "# VmHWM %s\n", rss)
	fmt.Fprintf(out, "# set-up rounds %.3f s, timed phase %.1f s\n", e.setupSeconds, e.timedSeconds)
	fmt.Fprintf(out, "# calib_ms before=%.2f after=%.2f drift=%+.1f%%\n",
		e.calibBefore, e.calibAfter, 100*(e.calibAfter/e.calibBefore-1))
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD of a repository rooted at the working
// directory; it never looks above it, and a checkout without .git
// (the benchmark driver's) reports "unknown".
func gitCommit() string {
	head := firstLine(".git/HEAD")
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head // detached: the hash itself, or "unknown"
	}
	if h := firstLine(".git/" + ref); h != "unknown" {
		return h
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if h, name, ok := strings.Cut(line, " "); ok && name == ref {
			return h
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// resetPeakRSS restarts the high-water mark at the current resident
// set (clear_refs code 5) and reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

var calibSink uint64

// calibrate times a fixed harness-owned spin — uvarint decoding plus a
// table lookup, the shape of the trace decoders' inner loop — and
// returns its wall time in ms. It runs before and after the timed
// phase: when the machine changed speed under the benchmark, the two
// differ, and the numbers in between deserve the same suspicion.
func calibrate(small bool) float64 {
	passes := 80 // ~50 ms on the reference box
	if small {
		passes = 1
	}
	// The fastest of three: the spin itself must not be the noisy part.
	return min(spin(passes), spin(passes), spin(passes))
}

func spin(passes int) float64 {
	const values = 1 << 16
	buf := make([]byte, 0, values*binary.MaxVarintLen32)
	x := uint32(12345)
	for i := 0; i < values; i++ {
		x = x*1664525 + 1013904223
		buf = binary.AppendUvarint(buf, uint64(x>>(x>>28)))
	}
	var table [256]uint64
	for i := range table {
		table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	start := time.Now()
	var sum uint64
	for p := 0; p < passes; p++ {
		for rest := buf; len(rest) > 0; {
			v, n := binary.Uvarint(rest)
			rest = rest[n:]
			sum += table[byte(v)^byte(sum)]
		}
	}
	calibSink += sum
	return float64(time.Since(start)) / 1e6
}
