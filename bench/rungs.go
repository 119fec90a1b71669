package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"metascope/internal/archive"
	"metascope/internal/replay"
	"metascope/internal/serve"
	"metascope/internal/stats"
	"metascope/internal/trace"
	"metascope/internal/vclock"
)

// timeMS is the p25 wall time in ms of reps calls of f, each from a
// freshly collected heap.
func timeMS(reps int, f func() error) (float64, error) {
	ms := make([]float64, reps)
	for i := range ms {
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(start)) / 1e6
	}
	return stats.Quantile(ms, 0.25), nil
}

// rungs measures every layer's public entry point on its own, on the
// workload's archive: the per-layer budget beside the operation's
// spans. A "_ms" rung the operation's spans already measured is
// skipped, so each name has one source per workload.
func rungs(in *input, ref *replay.Result, small bool, measured func(name string) bool, layer func(name string, v float64)) error {
	reps := 3
	if small {
		reps = 1
	}
	cfg := analyzeConfig(in, nil)
	events := float64(in.events)
	rate := func(ms float64) float64 { return events / 1e6 / (ms / 1e3) } // Mevents/s
	// rung times f under name; the first failure ends the ladder.
	var failed error
	rung := func(name string, f func() error) {
		if failed != nil || measured(name) {
			return
		}
		ms, err := timeMS(reps, f)
		if err != nil {
			failed = fmt.Errorf("%s: %w", name, err)
			return
		}
		layer(name, ms)
	}

	// archive
	var blobs [][]byte
	ms, err := timeMS(reps, func() (err error) { blobs, err = in.readBlobs(); return })
	if err != nil {
		return err
	}
	layer("archive.read_mb_per_s", float64(in.bytes)/1e6/(ms/1e3))

	// trace: one pass visits the ranks one at a time, so only one
	// rank's events are resident; the pass totals are what is compared.
	var (
		decode, decodeV1, blockNext, chunkFeed, encode []float64
		v1Bytes                                        int64
		v1, v2                                         bytes.Buffer
		block                                          []trace.Event
	)
	since := func(start time.Time) float64 { return float64(time.Since(start)) / 1e6 }
	for rep := 0; rep < reps; rep++ {
		var dec, dec1, blk, chk, enc float64
		v1Bytes = 0
		runtime.GC()
		for _, blob := range blobs {
			start := time.Now()
			tr, err := trace.DecodeBytes(blob)
			dec += since(start)
			if err != nil {
				return err
			}

			v2.Reset()
			start = time.Now()
			err = tr.EncodeFormat(&v2, trace.FormatV2)
			enc += since(start)
			if err != nil {
				return err
			}
			if !bytes.Equal(v2.Bytes(), blob) {
				return errors.New("v2 decode + encode does not reproduce the trace file")
			}

			v1.Reset()
			if err := tr.EncodeFormat(&v1, trace.FormatV1); err != nil {
				return err
			}
			v1Bytes += int64(v1.Len())
			start = time.Now()
			_, err = trace.DecodeBytes(v1.Bytes())
			dec1 += since(start)
			if err != nil {
				return err
			}

			start = time.Now()
			br, err := trace.NewBlockReader(blob, nil)
			if err != nil {
				return err
			}
			if cap(block) < br.BlockSize() {
				block = make([]trace.Event, br.BlockSize())
			}
			n := 0
			for {
				k, err := br.Next(block[:br.BlockSize()])
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				n += k
			}
			blk += since(start)

			start = time.Now()
			cd := trace.NewChunkDecoder(nil)
			cd.DiscardEvents = true
			fed := 0
			for off := 0; off < len(blob); off += chunkBytes {
				evs, err := cd.Feed(blob[off:min(off+chunkBytes, len(blob))])
				if err != nil {
					return err
				}
				fed += len(evs)
			}
			_, err = cd.Finish()
			chk += since(start)
			if err != nil {
				return err
			}
			if n != len(tr.Events) || fed != len(tr.Events) {
				return errors.New("block and chunk decoders disagree with DecodeBytes on the event count")
			}
		}
		decode, decodeV1, blockNext = append(decode, dec), append(decodeV1, dec1), append(blockNext, blk)
		chunkFeed, encode = append(chunkFeed, chk), append(encode, enc)
	}
	layer("trace.decode_mevents_per_s", rate(stats.Quantile(decode, 0.25)))
	layer("trace.decode_v1_mevents_per_s", rate(stats.Quantile(decodeV1, 0.25)))
	layer("trace.block_next_mevents_per_s", rate(stats.Quantile(blockNext, 0.25)))
	layer("trace.chunk_feed_mevents_per_s", rate(stats.Quantile(chunkFeed, 0.25)))
	layer("trace.encode_mevents_per_s", rate(stats.Quantile(encode, 0.25)))
	layer("trace.bytes_per_event", float64(in.bytes)/events)
	layer("trace.v1_bytes_per_event", float64(v1Bytes)/events)

	// replay and vclock
	var traces []*trace.Trace
	load := func() (err error) {
		traces, err = replay.LoadArchive(in.mounts, in.metahosts, in.dir)
		return
	}
	rung("replay.load_ms", load)
	if traces == nil {
		if err := load(); err != nil {
			return err
		}
	}
	rung("replay.analyze_ms", func() error {
		_, err := replay.Analyze(traces, cfg)
		return err
	})
	traces = nil
	var lazy *replay.LazyArchive
	loadLazy := func() (err error) {
		lazy, err = replay.LoadArchiveLazy(in.mounts, in.metahosts, in.dir)
		return
	}
	rung("replay.load_lazy_ms", loadLazy)
	if lazy == nil {
		if err := loadLazy(); err != nil {
			return err
		}
	}
	rung("vclock.build_ms", func() error {
		_, err := replay.BuildCorrections(lazy.Traces, vclock.Hierarchical)
		return err
	})
	rung("replay.analyze_lazy_ms", func() error {
		_, err := replay.AnalyzeLazy(lazy, cfg)
		return err
	})
	lazy = nil
	if failed != nil {
		return failed
	}

	// The live engine with the live workloads' chunking and no HTTP.
	var feed, finalize []float64
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		l, err := replay.NewLive(replay.LiveConfig{Config: cfg, Ranks: len(blobs)})
		if err != nil {
			return err
		}
		start := time.Now()
		for off, sent := 0, true; sent; off += chunkBytes {
			sent = false
			for r, b := range blobs {
				if off < len(b) {
					if err := l.FeedChunk(r, b[off:min(off+chunkBytes, len(b))]); err != nil {
						return err
					}
					sent = true
				}
			}
		}
		feed = append(feed, since(start))
		start = time.Now()
		res, err := l.Finalize(context.Background())
		finalize = append(finalize, since(start))
		if err != nil {
			return err
		}
		if res.Messages != ref.Messages || res.Collectives != ref.Collectives {
			return errors.New("live engine disagrees with the reference on the operation counts")
		}
	}
	layer("replay.live_feed_ms", stats.Quantile(feed, 0.25))
	layer("replay.live_finalize_ms", stats.Quantile(finalize, 0.25))
	var replayBytes int64
	for _, b := range ref.ReplayBytes {
		replayBytes += b
	}
	layer("replay.messages", float64(ref.Messages))
	layer("replay.collectives", float64(ref.Collectives))
	layer("replay.bytes_per_event", float64(replayBytes)/events)

	// cube, profile, phase: the reference result's artifacts.
	var a artifacts
	if err := a.render(nil, ref); err != nil {
		return err
	}
	layer("cube.bytes", float64(a.cube.Len()))
	layer("profile.bytes", float64(a.profile.Len()))
	layer("phase.phases", float64(len(ref.Phases.Phases)))
	rung("cube.write_ms", func() error { return ref.Report.Write(io.Discard) })
	rung("cube.render_ms", func() error { renderText(ref); return nil })
	rung("profile.write_ms", func() error { return ref.Profile.WriteJSON(io.Discard) })
	rung("phase.write_ms", func() error { return ref.Phases.WriteJSON(io.Discard) })

	// serve: the public bundle functions.
	var (
		bundle    bytes.Buffer
		mounts    *archive.Mounts
		metahosts []int
		dir       string
	)
	rung("serve.encode_zip_ms", func() error {
		bundle.Reset()
		return serve.EncodeZip(&bundle, in.mounts, in.metahosts, in.dir)
	})
	rung("serve.decode_zip_ms", func() (err error) {
		mounts, metahosts, dir, err = serve.DecodeZip(bundle.Bytes(), serve.DefaultMaxUploadBytes)
		return
	})
	rung("serve.digest_ms", func() error {
		digest, err := serve.Digest(mounts, metahosts, dir)
		if err == nil && digest != in.digest {
			err = errors.New("the bundle's digest differs from the archive's")
		}
		return err
	})
	return failed
}
