package replay

import (
	"fmt"
	"math"
	"sort"

	"metascope/internal/cube"
	"metascope/internal/obs"
	"metascope/internal/obs/flight"
	"metascope/internal/pattern"
	"metascope/internal/phase"
	"metascope/internal/profile"
	"metascope/internal/trace"
)

// result finalizes the per-rank results into the analysis report: the
// one read of the severity ledger (sweep samples, then the wrong-order
// post-pass), application of remote (sender-side) contributions, and
// assembly of the severity cube. lap closes a timed stretch of the
// epilogue (see finish); the report build that ends this function is
// closed by the caller.
func (a *analyzer) result(lap func(child string)) (*Result, error) {
	n := len(a.results)
	res := &Result{
		Corrections:         a.corrs,
		ReplayBytes:         make([]int64, n),
		ReplayExternalBytes: make([]int64, n),
		CommMatrix:          make(map[[2]int]CommVolume),
		MetahostNames:       make(map[int]string),
	}
	for _, t := range a.traces {
		res.MetahostNames[t.Loc.Metahost] = t.Loc.MetahostName
	}
	for i, rr := range a.results {
		if rr.err != nil {
			return nil, rr.err
		}
		res.Violations += rr.violations
		res.Repairs += rr.repairs
		res.Messages += rr.messages
		res.Collectives += rr.colls
		res.ReplayBytes[i] = rr.replayBytes
		res.ReplayExternalBytes[i] = rr.replayExternal
		src := a.metahosts[a.mhCol[i]]
		for d, v := range rr.commRow {
			if v.Messages == 0 {
				continue
			}
			k := [2]int{src, a.metahosts[d]}
			cell := res.CommMatrix[k]
			cell.Messages += v.Messages
			cell.Bytes += v.Bytes
			res.CommMatrix[k] = cell
		}
	}

	// One severity ledger, read once. Workers defer every scored sample
	// to their rank's profLog, and a Late Sender instance only gets its
	// pattern identity in the post-pass below; deposit hands each sample
	// to both of its readings — the bucketed time-resolved profile and
	// the per-phase fold — on this goroutine, in one fixed order: sweep
	// samples rank-major, then post-pass samples rank-major. That order,
	// not goroutine scheduling or chunking, fixes every floating-point
	// sum, so the artifacts are byte-identical across post-mortem, lazy
	// and streamed analysis and any GOMAXPROCS.
	//
	// The profile's interval axis is derived here, after the replay: it
	// includes every rank's final repair shift, and a live session only
	// knows the corrected run span once every rank's stream has finished.
	// Phase detection reads only the per-rank op logs (pure functions of
	// the corrected traces).
	prof := profile.NewAccumulator(profileConfig(a))
	for p := pattern.ID(0); p < pattern.NumPatterns; p++ {
		prof.SetMeta(p.MetricKey(), profile.SeriesMeta{Name: p.String(), Unit: "sec"})
	}
	prof.SetMeta(profile.KeyBytesIntra, profile.SeriesMeta{Name: "Intra-metahost message volume", Unit: "bytes"})
	prof.SetMeta(profile.KeyBytesWide, profile.SeriesMeta{Name: "Wide-area message volume", Unit: "bytes"})
	opLogs := make([]phase.Log, n)
	for i, rr := range a.results {
		opLogs[i] = rr.opLog.pages
	}
	lap("ledger-fold")
	// Phase detection searches many candidate partitions, reading each
	// rank's ops in the pages the sweep wrote them into.
	seg := phase.Detect(opLogs)
	lap("phase-detect")
	pacc := phase.NewAccumulator(seg, n)
	for mh, name := range res.MetahostNames {
		prof.SetMetahostName(mh, name)
		pacc.SetMetahostName(mh, name)
	}
	// A sample names its series by (metric id, rank); the two accumulators
	// are asked for that series and its phase row once, on its first
	// sample, so a series exists exactly when something was deposited.
	type seriesSlot struct {
		ser profile.Handle
		row *phase.Row
	}
	var slots [numMetrics][]seriesSlot
	deposit := func(m metricID, rank int32, start, dur, val float64) {
		if slots[m] == nil {
			slots[m] = make([]seriesSlot, n)
		}
		sl := &slots[m][rank]
		if sl.row == nil {
			mh := a.traces[rank].Loc.Metahost
			sl.ser = prof.Series(profile.Key{Metric: m.key(), Metahost: mh, Rank: int(rank)})
			sl.row = pacc.Row(m.key(), mh)
		}
		sl.ser.Add(start, dur, val)
		sl.row.Add(start, val)
	}
	for _, rr := range a.results {
		for _, pg := range rr.profLog.pages {
			for i := range pg {
				s := &pg[i]
				deposit(s.metric, s.rank, s.start, s.dur, s.val)
			}
		}
	}
	a.logLedger()
	lap("ledger-fold")

	// Wrong-order post-pass: a Late Sender instance is reclassified as
	// Messages in Wrong Order if the receiver later consumes a message
	// that was sent earlier than the matched one and before the receive
	// was posted — receiving in send order would have shortened the
	// wait. A suffix-minimum over the per-receiver log decides this in
	// linear time and independently of goroutine scheduling. The final
	// classification is also when the late-sender family's samples are
	// deposited: only here is the pattern identity of an instance known.
	if pw := a.fl.Writer(flight.PostPassActor); pw != nil {
		pw.Emit(flight.SpanBegin, a.flJob, a.fn.postpass, 0, 0)
		defer pw.Emit(flight.SpanEnd, a.flJob, a.fn.postpass, 0, 0)
	}
	var minFuture []float64 // one buffer, grown to the longest receive log
	for _, rr := range a.results {
		minFuture = a.postPassRank(rr, minFuture, deposit)
	}

	// Sender-side severities detected remotely (Late Receiver), each
	// recorded by the rank that detected it. Concatenated rank-major they
	// are already a function of the trace contents; the sort fixes the
	// order of the floating-point accumulation below, and therefore the
	// cube bytes.
	var remote []remoteContribution
	for _, rr := range a.results {
		remote = append(remote, rr.remote...)
	}
	sort.SliceStable(remote, func(i, j int) bool {
		x, y := remote[i], remote[j]
		if x.rank != y.rank {
			return x.rank < y.rank
		}
		if x.cp != y.cp {
			return x.cp < y.cp
		}
		if x.pat != y.pat {
			return x.pat < y.pat
		}
		if x.col != y.col {
			return x.col < y.col
		}
		return x.val < y.val
	})
	for _, rc := range remote {
		acc := &a.results[rc.rank].acc[rc.cp]
		if rc.pat == pattern.GridLateReceiver {
			acc.addGrid(rc.pat, rc.col, len(a.metahosts), rc.val)
		} else {
			acc.waits[rc.pat] += rc.val
		}
	}
	lap("post-pass")

	res.Profile = prof.Snapshot(a.cfg.Title)
	res.Phases = pacc.Snapshot(a.cfg.Title)

	res.Report = a.buildReport()
	res.Report.Profile = res.Profile
	if err := res.Report.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// postPassRank classifies one rank's receive log — the suffix-minimum
// wrong-order test — updating the rank's own call-path accumulators
// and depositing the late-sender-family samples, in receive order.
// minFuture is the suffix-minimum buffer, handed back for the next rank.
func (a *analyzer) postPassRank(rr *rankResult, minFuture []float64, deposit func(m metricID, rank int32, start, dur, val float64)) []float64 {
	myCol, m := a.mhCol[rr.rank], len(a.metahosts)
	pages := rr.recvLog.pages
	n := rr.recvLog.len()
	if cap(minFuture) < n+1 {
		minFuture = make([]float64, n+1)
	}
	minFuture = minFuture[:n+1]
	minFuture[n] = math.Inf(1)
	i := n
	for p := len(pages) - 1; p >= 0; p-- {
		for j := len(pages[p]) - 1; j >= 0; j-- {
			i--
			minFuture[i] = math.Min(minFuture[i+1], pages[p][j].sendEvent)
		}
	}
	for _, pg := range pages {
		for j := range pg {
			ri := &pg[j]
			i++ // minFuture[i] is the suffix minimum past this receive
			if ri.lsWait <= 0 {
				continue
			}
			pat := pattern.LateSender
			if srcCol := a.mhCol[ri.src]; srcCol != myCol {
				pat = pattern.GridLateSender
				rr.acc[ri.cp].addGrid(pat, srcCol, m, ri.lsWait)
			} else {
				if pattern.WrongOrderCandidate(ri.lsWait, ri.sendEvent, minFuture[i], ri.recvEnter) {
					pat = pattern.WrongOrder
				}
				rr.acc[ri.cp].waits[pat] += ri.lsWait
			}
			deposit(metricID(pat), int32(rr.rank), ri.recvEnter, ri.lsWait, ri.lsWait)
		}
	}
	return minFuture
}

// logLedger reports, once per analysis and at debug level, what the
// ledger holds at the end of the sweep: its records by log, the pages
// they sit in and the bytes of those pages.
func (a *analyzer) logLedger() {
	var samples, recvs, ops, pages, size int
	for _, rr := range a.results {
		samples += rr.profLog.len()
		recvs += rr.recvLog.len()
		ops += rr.opLog.len()
		pages += len(rr.profLog.pages) + len(rr.recvLog.pages) + len(rr.opLog.pages)
		size += rr.profLog.bytes() + rr.recvLog.bytes() + rr.opLog.bytes()
	}
	obs.OrDefault(a.cfg.Obs).Log.Debug("ledger folded",
		"samples", samples, "recvs", recvs, "ops", ops, "pages", pages, "ledger_bytes", size)
}

// metricSlot caches the report indices of all metrics.
type metricSlot struct {
	time, execution, mpi, comm, p2p, coll, sync, visits int
	bytesSent, bytesRecv                                int
	pat                                                 [pattern.NumPatterns]int
}

func slots(r *cube.Report) metricSlot {
	var s metricSlot
	s.time = r.MetricIndex(pattern.KeyTime)
	s.execution = r.MetricIndex(pattern.KeyExecution)
	s.mpi = r.MetricIndex(pattern.KeyMPI)
	s.comm = r.MetricIndex(pattern.KeyComm)
	s.p2p = r.MetricIndex(pattern.KeyP2P)
	s.coll = r.MetricIndex(pattern.KeyColl)
	s.sync = r.MetricIndex(pattern.KeySync)
	s.visits = r.MetricIndex(pattern.KeyVisits)
	s.bytesSent = r.MetricIndex(pattern.KeyBytesSent)
	s.bytesRecv = r.MetricIndex(pattern.KeyBytesRecv)
	for p := pattern.ID(0); p < pattern.NumPatterns; p++ {
		s.pat[p] = r.MetricIndex(p.MetricKey())
	}
	return s
}

// buildReport assembles the cube: metric dimension from the pattern
// catalogue, call dimension from the union of the per-rank call-path
// trees, system dimension from the trace locations.
//
// Severities are stored exclusively along the metric tree:
//
//	Execution: exclusive time of user call paths,
//	MPI:       exclusive time of MPI_Init-class calls,
//	P2P/Collective/Synchronization: call time minus the wait states
//	           detected inside it,
//	patterns:  the wait states themselves (plain, grid, and wrong-order
//	           variants disjoint by construction); a grid pattern's waits
//	           live in its per-metahost-pair children.
//
// Inclusive aggregation along the metric tree then yields exactly the
// totals shown in the paper's displays: "Time" is total execution
// time, "MPI" the full MPI time, "Late Sender" all late-sender waiting
// including grid and wrong-order instances.
func (a *analyzer) buildReport() *cube.Report {
	locs := make([]cube.Loc, len(a.traces))
	for r, t := range a.traces {
		locs[r] = cube.Loc{
			Rank:         t.Loc.Rank,
			Metahost:     t.Loc.Metahost,
			MetahostName: t.Loc.MetahostName,
			Node:         t.Loc.Node,
		}
	}
	rep := cube.New(a.cfg.Title, cube.FromMetricDefs(pattern.MetricTree()), locs)
	ms := slots(rep)

	// Per-metahost-pair children of the grid metrics (§6 future work): one
	// per pair that occurred. pairIdx[(pat*m+lo)*m+hi] is the metric of
	// pattern pat between metahost columns lo <= hi, and columns ascend
	// with metahost ids, so walking it creates them in (pattern, id, id)
	// order. cell maps a call path's pair-row entry k on a rank of column
	// own to its index there.
	m := len(a.metahosts)
	cell := func(own, k int) int {
		col := k % m
		return (k-col+min(own, col))*m + max(own, col)
	}
	pairIdx := make([]int, int(pattern.NumPatterns)*m*m)
	names := make([]string, m)
	for rank, rr := range a.results {
		names[a.mhCol[rank]] = a.traces[rank].Loc.MetahostName
		for _, acc := range rr.acc {
			for k, v := range acc.pairs {
				if v != 0 {
					pairIdx[cell(a.mhCol[rank], k)] = 1
				}
			}
		}
	}
	for i, seen := range pairIdx {
		if seen == 0 {
			continue
		}
		pat, lo, hi := pattern.ID(i/(m*m)), i/m%m, i%m
		nameA, nameB := names[lo], names[hi]
		pairIdx[i] = rep.AddMetric(cube.Metric{
			Key:    fmt.Sprintf("%s.pair.%d-%d", pat.MetricKey(), a.metahosts[lo], a.metahosts[hi]),
			Name:   fmt.Sprintf("%s: %s <-> %s", pat, nameA, nameB),
			Unit:   "sec",
			Desc:   fmt.Sprintf("%s instances between metahosts %s and %s", pat, nameA, nameB),
			Parent: ms.pat[pat],
		})
	}
	var grid [pattern.NumPatterns]bool
	for p := range pattern.NumPatterns {
		if g := p.Gridded(); g != p {
			grid[g] = true
		}
	}

	for rank, rr := range a.results {
		// Map rank-local call-path ids to report call nodes. Parents
		// precede children in rr.paths by construction.
		cpMap := make([]int, len(rr.paths))
		for i, cp := range rr.paths {
			parent := -1
			if cp.parent >= 0 {
				parent = cpMap[cp.parent]
			}
			cpMap[i] = rep.Child(parent, cp.name)
		}
		for i, acc := range rr.acc {
			c := cpMap[i]
			rep.Add(ms.visits, c, rank, acc.visits)
			if acc.bytesSent > 0 {
				rep.Add(ms.bytesSent, c, rank, acc.bytesSent)
			}
			if acc.bytesRecv > 0 {
				rep.Add(ms.bytesRecv, c, rank, acc.bytesRecv)
			}
			for k, v := range acc.pairs {
				if v != 0 {
					rep.Add(pairIdx[cell(a.mhCol[rank], k)], c, rank, v)
				}
			}
			waitSum := 0.0
			for p := pattern.ID(0); p < pattern.NumPatterns; p++ {
				if acc.waits[p] > 0 {
					if !grid[p] {
						rep.Add(ms.pat[p], c, rank, acc.waits[p])
					}
					waitSum += acc.waits[p]
				}
			}
			rest := acc.excl - waitSum
			if rest < 0 {
				rest = 0
			}
			switch rr.paths[i].kind {
			case trace.RegionUser:
				rep.Add(ms.execution, c, rank, acc.excl)
			case trace.RegionMPIP2P:
				rep.Add(ms.p2p, c, rank, rest)
			case trace.RegionMPIColl:
				if rr.paths[i].name == "MPI_Barrier" {
					rep.Add(ms.sync, c, rank, rest)
				} else {
					rep.Add(ms.coll, c, rank, rest)
				}
			default: // RegionMPIOther
				rep.Add(ms.mpi, c, rank, rest)
			}
		}
	}
	return rep
}
