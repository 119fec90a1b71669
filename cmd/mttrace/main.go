// mttrace inspects local trace files written by mtrun:
//
//	mttrace run1/FZJ/epik_metatrace/trace.16.mscp          # summary
//	mttrace -dump -n 50 run1/FZJ/epik_metatrace/trace.16.mscp
//	mttrace -sync run1/FZJ/epik_metatrace/trace.16.mscp    # offset data
//	mttrace -convert -format v2 run1/FZJ/epik_metatrace/*.mscp
//
// -convert re-encodes trace files in place (write-to-temp + rename, so
// a crash never leaves a half-written trace), e.g. to migrate a v1
// archive to the columnar v2 encoding or back.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"metascope/internal/obs"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// convert re-encodes one trace file in place atomically. Files already
// in the target format are rewritten anyway — cheap, and it keeps the
// operation idempotent byte-for-byte (encode is deterministic).
func convert(cli *obs.CLIConfig, path string, f trace.Format) error {
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
	fmt.Printf("%s: %v -> %v (%d -> %d bytes)\n", filepath.Base(path), from, to, len(data), buf.Len())
	return nil
}

func run(cli *obs.CLIConfig, dump bool, n int, sync bool, doConvert bool, format trace.Format) error {
	if flag.NArg() == 0 {
		return fmt.Errorf("usage: mttrace [-dump [-n N]] [-sync] [-convert -format v1|v2] trace.mscp...")
	}
	for _, path := range flag.Args() {
		if doConvert {
			if err := convert(cli, path, format); err != nil {
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
			cli.Recorder().Log.Warn("trace validation", "path", path, "err", err)
		}
		span := cli.Recorder().Phases.Start("render")
		switch {
		case dump:
			fmt.Print(tr.Dump(n))
		case sync:
			s := tr.Sync
			fmt.Printf("trace %s\n", tr.Loc)
			fmt.Printf("  global master rank %d, local master rank %d, shared node clock %v\n",
				s.GlobalMasterRank, s.LocalMasterRank, s.SharedNodeClock)
			pr := func(name string, m vclock.Measurement) {
				fmt.Printf("  %-14s local=%14.6f offset=%+.9f err=%.9f\n", name, m.Local, m.Offset, m.Err)
			}
			pr("flat start", s.FlatStart)
			pr("flat end", s.FlatEnd)
			pr("local start", s.LocalStart)
			pr("local end", s.LocalEnd)
			pr("master start", s.MasterStart)
			pr("master end", s.MasterEnd)
		default:
			fmt.Print(tr.Stats().Format())
		}
		span.End()
		if flag.NArg() > 1 {
			fmt.Println()
		}
	}
	return nil
}

func main() {
	cli := obs.RegisterCLIFlags("mttrace", flag.CommandLine, nil)
	dump := flag.Bool("dump", false, "dump the raw event stream")
	n := flag.Int("n", 100, "with -dump: maximum number of events (0 = all)")
	sync := flag.Bool("sync", false, "print the synchronization measurements")
	doConvert := flag.Bool("convert", false, "re-encode the trace files in place (atomic rename)")
	formatStr := flag.String("format", "", "with -convert: target format v1 | v2 (default: the current default format)")
	flag.Parse()
	cli.Start()

	format, err := trace.ParseFormat(*formatStr)
	if err == nil {
		err = run(cli, *dump, *n, *sync, *doConvert, format)
	}
	if ferr := cli.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		obs.Fatal("mttrace failed", "err", err)
	}
}
