package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"metascope/internal/obs"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// convert re-encodes one trace file in place atomically. Files already
// in the target format are rewritten anyway — cheap, and it keeps the
// operation idempotent byte-for-byte (encode is deterministic).
func convert(path string, f trace.Format, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	from, err := trace.FormatOf(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	tr, err := trace.DecodeBytes(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var buf bytes.Buffer
	if err := tr.EncodeFormat(&buf, f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	to, _ := trace.FormatOf(buf.Bytes())
	fmt.Fprintf(stdout, "%s: %v -> %v (%d -> %d bytes)\n", filepath.Base(path), from, to, len(data), buf.Len())
	return nil
}

// traceVerb is trace: it inspects local trace files written by run or
// gen -out:
//
//	metascope trace run1/FZJ/epik_metatrace/trace.16.mscp          # summary
//	metascope trace -dump -n 50 run1/FZJ/epik_metatrace/trace.16.mscp
//	metascope trace -sync run1/FZJ/epik_metatrace/trace.16.mscp    # offset data
//	metascope trace -convert -format v2 run1/FZJ/epik_metatrace/*.mscp
//
// -convert re-encodes trace files in place (write-to-temp + rename, so
// a crash never leaves a half-written trace), e.g. to migrate a v1
// archive to the columnar v2 encoding or back.
func traceVerb(fs *flag.FlagSet) verbFunc {
	dump := fs.Bool("dump", false, "dump the raw event stream")
	n := fs.Int("n", 100, "with -dump: maximum number of events (0 = all)")
	sync := fs.Bool("sync", false, "print the synchronization measurements")
	doConvert := fs.Bool("convert", false, "re-encode the trace files in place (atomic rename)")
	formatStr := fs.String("format", "", "with -convert: target format v1 | v2 (default: the current default format)")
	return func(_ context.Context, args []string, stdout io.Writer) error {
		format, err := trace.ParseFormat(*formatStr)
		if err != nil {
			return err
		}
		if len(args) == 0 {
			return fmt.Errorf("usage: metascope trace [-dump [-n N]] [-sync] [-convert -format v1|v2] trace.mscp...")
		}
		rec := obs.Default
		for _, path := range args {
			if *doConvert {
				if err := convert(path, format, stdout); err != nil {
					return err
				}
				continue
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			tr, err := trace.DecodeBytes(data)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			if err := tr.Validate(); err != nil {
				rec.Log.Warn("trace validation", "path", path, "err", err)
			}
			span := rec.Phases.Start("render")
			switch {
			case *dump:
				fmt.Fprint(stdout, tr.Dump(*n))
			case *sync:
				s := tr.Sync
				fmt.Fprintf(stdout, "trace %s\n", tr.Loc)
				fmt.Fprintf(stdout, "  global master rank %d, local master rank %d, shared node clock %v\n",
					s.GlobalMasterRank, s.LocalMasterRank, s.SharedNodeClock)
				pr := func(name string, m vclock.Measurement) {
					fmt.Fprintf(stdout, "  %-14s local=%14.6f offset=%+.9f err=%.9f\n", name, m.Local, m.Offset, m.Err)
				}
				pr("flat start", s.FlatStart)
				pr("flat end", s.FlatEnd)
				pr("local start", s.LocalStart)
				pr("local end", s.LocalEnd)
				pr("master start", s.MasterStart)
				pr("master end", s.MasterEnd)
			default:
				fmt.Fprint(stdout, tr.Stats().Format())
			}
			span.End()
			if len(args) > 1 {
				fmt.Fprintln(stdout)
			}
		}
		return nil
	}
}
