package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"metascope/internal/stats"
)

// child runs one workload in a process of its own — each workload's
// heap, high-water mark and server are its alone — and returns its
// result line and everything it printed.
func child(o options, workload string) (*result, []byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
	}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, out, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, out, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &res, out, nil
}

// runAll runs the four workloads one after the other.
func runAll(o options, out io.Writer) error {
	failed := 0
	for _, w := range workloads {
		res, text, err := child(o, w.name)
		out.Write(text)
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		failed += res.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runAA measures the same code twice, untraced: every workload n times
// as set A and n times as set B, alternating which goes first, run i of
// both sets on seed+i. It prints each set's median and quartile spread per
// (metric, workload), and how much worse B's median is than A's as a
// share of A's, against the metric's bound. Identical code must stay
// inside every bound; if it does not, the benchmark cannot resolve a
// regression of that size and the error says so.
func runAA(o options, n int, out io.Writer) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failed := 0
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for j := 0; j < 2; j++ {
				set := (i + j) % 2
				oi := o
				oi.seed, oi.trace = o.seed+int64(i), false
				res, _, err := child(oi, w.name)
				if err != nil {
					return err
				}
				failed += res.Failed
				for name, v := range res.Metrics {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], v.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: run %d/%d set %c %s done\n", i+1, n, 'A'+set, w.name)
			}
		}
	}
	fmt.Fprintf(out, "%-15s %-22s %12s %7s %12s %7s %8s %6s\n",
		"workload", "metric", "A median", "A iqr", "B median", "B iqr", "B worse", "bound")
	breaches := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][key{w.name, d.Name}], sets[1][key{w.name, d.Name}]
			ma, mb := stats.Quantile(a, 0.5), stats.Quantile(b, 0.5)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			if ma == mb {
				worse = 0
			}
			mark := ""
			if worse > d.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-15s %-22s %12.6g %6.2f%% %12.6g %6.2f%% %+7.2f%% %5.0f%%%s\n",
				w.name, d.Name, ma, 100*spread(a), mb, 100*spread(b), 100*worse, 100*d.Bound, mark)
		}
	}
	fmt.Fprintf(out, "failed operations: %d\n", failed)
	if breaches > 0 || failed > 0 {
		return fmt.Errorf("A/A: %d bound breaches and %d failed operations on identical code", breaches, failed)
	}
	return nil
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return (stats.Quantile(xs, 0.75) - stats.Quantile(xs, 0.25)) / stats.Quantile(xs, 0.5)
}
