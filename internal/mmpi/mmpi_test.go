package mmpi

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"metascope/internal/sim"
	"metascope/internal/topology"
)

// testTopo builds a two-metahost system: metahost 0 with 2 nodes x 2
// CPUs, metahost 1 with 2 nodes x 2 CPUs, joined by a 1 ms external
// link. Internal latency 20 us, same-node 2 us.
func testTopo() *topology.Metacomputer {
	mc := topology.New("test")
	internal := topology.Link{LatencyMean: 20e-6, LatencySD: 0.2e-6, Bandwidth: 1e9, Dedicated: true}
	shm := topology.Link{LatencyMean: 2e-6, LatencySD: 0.05e-6, Bandwidth: 4e9, Dedicated: true}
	clock := topology.ClockSpec{MaxOffset: 1, MaxDrift: 1e-5}
	mc.AddMetahost(&topology.Metahost{
		Name: "alpha", Nodes: 2, CPUs: 2, Internal: internal, NodeLocal: shm, Clock: clock,
		Speed: map[string]float64{"": 1.0, "fast": 2.0},
	})
	mc.AddMetahost(&topology.Metahost{
		Name: "beta", Nodes: 2, CPUs: 2, Internal: internal, NodeLocal: shm, Clock: clock,
		Speed: map[string]float64{"": 2.0},
	})
	mc.DefaultExternal = topology.Link{LatencyMean: 1e-3, LatencySD: 4e-6, Bandwidth: 1.25e9, Dedicated: true}
	return mc
}

// place8 puts 4 ranks on each metahost (2 nodes x 2).
func place8(mc *topology.Metacomputer) *topology.Placement {
	p := topology.NewPlacement(mc)
	p.MustPlace(0, 0, 2, 2)
	p.MustPlace(1, 0, 2, 2)
	return p
}

func newTestWorld(seed int64, n int) (*World, *topology.Placement) {
	mc := testTopo()
	var p *topology.Placement
	switch n {
	case 8:
		p = place8(mc)
	case 4:
		p = topology.NewPlacement(mc)
		p.MustPlace(0, 0, 2, 2)
	case 2:
		p = topology.NewPlacement(mc)
		p.MustPlace(0, 0, 2, 1)
	default:
		panic("unsupported test size")
	}
	return NewWorld(sim.NewEngine(seed), p), p
}

func TestBlockingSendRecvTransfersAndTimes(t *testing.T) {
	w, _ := newTestWorld(1, 2)
	var recvAt, sendDone float64
	err := w.Run(func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			c.Send(1, 7, 1024)
			sendDone = p.Now()
		} else {
			st := c.Recv(0, 7)
			recvAt = p.Now()
			if st.Source != 0 || st.Tag != 7 || st.Bytes != 1024 {
				t.Errorf("status = %+v", st)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Internal link: latency ~20 us plus ~1 us transfer.
	if recvAt < 15e-6 || recvAt > 60e-6 {
		t.Errorf("recv completed at %g, want ~21 us", recvAt)
	}
	// Eager send returns without waiting for the receiver.
	if sendDone > recvAt {
		t.Errorf("eager send (done %g) blocked until recv (%g)", sendDone, recvAt)
	}
}

func TestLateSenderBlocksReceiver(t *testing.T) {
	w, _ := newTestWorld(1, 2)
	var recvDone float64
	err := w.Run(func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			p.Elapse(1.0) // sender is late
			c.Send(1, 1, 64)
		} else {
			c.Recv(0, 1) // posted at t=0
			recvDone = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvDone < 1.0 {
		t.Errorf("receiver finished at %g before the send at 1.0", recvDone)
	}
}

func TestRendezvousBlocksSenderUntilRecvPosted(t *testing.T) {
	w, _ := newTestWorld(1, 2)
	big := w.EagerLimit + 1
	var sendDone float64
	err := w.Run(func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			c.Send(1, 1, big)
			sendDone = p.Now()
		} else {
			p.Elapse(2.0) // receiver is late: Late Receiver situation
			c.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone < 2.0 {
		t.Errorf("rendezvous send completed at %g before the recv post at 2.0", sendDone)
	}
}

func TestEagerThresholdBoundary(t *testing.T) {
	w, _ := newTestWorld(1, 2)
	var doneAtLimit, doneAboveLimit float64
	limit := w.EagerLimit
	err := w.Run(func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			c.Send(1, 1, limit) // exactly at the limit: eager
			doneAtLimit = p.Now()
			c.Send(1, 2, limit+1) // above: rendezvous
			doneAboveLimit = p.Now()
		} else {
			p.Elapse(1.0)
			c.Recv(0, 1)
			p.Elapse(1.0)
			c.Recv(0, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if doneAtLimit > 0.5 {
		t.Errorf("at-limit send blocked (done at %g)", doneAtLimit)
	}
	if doneAboveLimit < 2.0 {
		t.Errorf("above-limit send did not block (done at %g)", doneAboveLimit)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	w, _ := newTestWorld(1, 2)
	var got []int
	err := w.Run(func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			for i := 0; i < 20; i++ {
				c.SendData(1, 3, 64, i)
			}
		} else {
			for i := 0; i < 20; i++ {
				st := c.Recv(0, 3)
				got = append(got, st.Data.(int))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("messages overtook: got %v", got)
		}
	}
}

func TestTagSelectiveMatching(t *testing.T) {
	w, _ := newTestWorld(1, 2)
	var order []int
	err := w.Run(func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			c.SendData(1, 10, 64, 10)
			c.SendData(1, 20, 64, 20)
		} else {
			// Receive tag 20 first although tag 10 was sent first.
			st := c.Recv(0, 20)
			order = append(order, st.Data.(int))
			st = c.Recv(0, 10)
			order = append(order, st.Data.(int))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{20, 10}) {
		t.Fatalf("tag matching broken: %v", order)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w, _ := newTestWorld(1, 4)
	seen := map[int]bool{}
	err := w.Run(func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				st := c.Recv(AnySource, AnyTag)
				if seen[st.Source] {
					t.Errorf("source %d seen twice", st.Source)
				}
				seen[st.Source] = true
				if st.Tag != 100+st.Source {
					t.Errorf("tag %d from %d", st.Tag, st.Source)
				}
			}
		} else {
			p.Elapse(float64(p.Rank()) * 0.01)
			c.Send(0, 100+p.Rank(), 32)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("received from %d distinct sources", len(seen))
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	w, _ := newTestWorld(1, 4)
	err := w.Run(func(p *Proc) {
		c := p.World()
		n := c.Size()
		var reqs []*Request
		for dst := 0; dst < n; dst++ {
			if dst != p.Rank() {
				reqs = append(reqs, c.Isend(dst, 5, 256))
			}
		}
		for src := 0; src < n; src++ {
			if src != p.Rank() {
				reqs = append(reqs, c.Irecv(src, 5))
			}
		}
		sts := c.Waitall(reqs)
		if len(sts) != 2*(n-1) {
			t.Errorf("rank %d: %d statuses", p.Rank(), len(sts))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitOnForeignRequestPanics(t *testing.T) {
	w, _ := newTestWorld(1, 2)
	err := w.Run(func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			req := c.Isend(1, 1, 8)
			_ = req
			c.Recv(1, 2)
		} else {
			c.Recv(0, 1)
			// Deliberately try to Wait on a request we don't own: the
			// panic is recovered by the engine and surfaces as an error.
			defer c.Send(0, 2, 8)
			foreign := &Request{p: nil}
			c.Wait(foreign)
		}
	})
	if err == nil {
		t.Fatalf("foreign Wait did not fail the run")
	}
}

func TestSendrecvExchanges(t *testing.T) {
	w, _ := newTestWorld(1, 2)
	var st0, st1 Status
	err := w.Run(func(p *Proc) {
		c := p.World()
		other := 1 - p.Rank()
		if p.Rank() == 0 {
			st0 = c.Sendrecv(other, 1, 512, other, 1)
		} else {
			st1 = c.Sendrecv(other, 1, 512, other, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st0.Source != 1 || st1.Source != 0 || st0.Bytes != 512 {
		t.Fatalf("sendrecv statuses %+v %+v", st0, st1)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w, _ := newTestWorld(1, 8)
	exits := make([]float64, 8)
	const latest = 0.7
	err := w.Run(func(p *Proc) {
		p.Elapse(0.1 * float64(p.Rank()))
		p.World().Barrier()
		exits[p.Rank()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range exits {
		if e < latest {
			t.Errorf("rank %d left the barrier at %g before the last entrant at %g", r, e, latest)
		}
		if e > latest+0.05 {
			t.Errorf("rank %d left the barrier only at %g (overhead too large)", r, e)
		}
	}
}

func TestBcastLateRootDelaysEveryone(t *testing.T) {
	w, _ := newTestWorld(1, 8)
	exits := make([]float64, 8)
	err := w.Run(func(p *Proc) {
		if p.Rank() == 2 {
			p.Elapse(0.5) // the root is late
		}
		p.World().Bcast(2, 4096)
		exits[p.Rank()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range exits {
		if e < 0.5 {
			t.Errorf("rank %d finished the bcast at %g before the root entered", r, e)
		}
	}
}

func TestBcastEarlyRootDoesNotWaitForLateLeaf(t *testing.T) {
	w, _ := newTestWorld(1, 8)
	exits := make([]float64, 8)
	err := w.Run(func(p *Proc) {
		if p.Rank() == 7 {
			p.Elapse(1.0) // one leaf is very late
		}
		p.World().Bcast(0, 4096)
		exits[p.Rank()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if exits[0] > 0.5 {
		t.Errorf("bcast root waited for a late leaf (exit %g)", exits[0])
	}
	if exits[7] < 1.0 {
		t.Errorf("late leaf exited at %g before entering at 1.0", exits[7])
	}
}

func TestReduceRootWaitsForAll(t *testing.T) {
	w, _ := newTestWorld(1, 8)
	exits := make([]float64, 8)
	err := w.Run(func(p *Proc) {
		if p.Rank() == 5 {
			p.Elapse(0.8)
		}
		p.World().Reduce(0, 1024)
		exits[p.Rank()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if exits[0] < 0.8 {
		t.Errorf("reduce root finished at %g before the last contributor", exits[0])
	}
	// An early non-root on a different subtree must not wait for rank 5.
	if exits[1] > 0.5 && exits[1] >= exits[0] {
		t.Errorf("non-root waited for the whole reduction: exit %g", exits[1])
	}
}

func TestAllreduceAlltoallAllgatherSynchronize(t *testing.T) {
	for _, op := range []string{"allreduce", "alltoall", "allgather"} {
		w, _ := newTestWorld(1, 8)
		exits := make([]float64, 8)
		err := w.Run(func(p *Proc) {
			p.Elapse(0.05 * float64(p.Rank()))
			switch op {
			case "allreduce":
				p.World().Allreduce(512)
			case "alltoall":
				p.World().Alltoall(512)
			case "allgather":
				p.World().Allgather(512)
			}
			exits[p.Rank()] = p.Now()
		})
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		for r, e := range exits {
			if e < 0.35 {
				t.Errorf("%s: rank %d exited at %g before the last entrant at 0.35", op, r, e)
			}
		}
	}
}

func TestReduceScatterSynchronizes(t *testing.T) {
	w, _ := newTestWorld(1, 8)
	exits := make([]float64, 8)
	err := w.Run(func(p *Proc) {
		p.Elapse(0.05 * float64(p.Rank()))
		p.World().ReduceScatter(1024)
		exits[p.Rank()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range exits {
		if e < 0.35 {
			t.Errorf("rank %d exited reduce-scatter at %g before last entrant", r, e)
		}
	}
}

func TestScanPartialSynchronization(t *testing.T) {
	// Rank i depends only on ranks 0..i-1: an early low rank exits
	// quickly even when high ranks are late; a high rank waits for all
	// lower ones.
	w, _ := newTestWorld(1, 8)
	exits := make([]float64, 8)
	err := w.Run(func(p *Proc) {
		if p.Rank() == 7 {
			p.Elapse(1.0) // the last rank is very late
		}
		if p.Rank() == 2 {
			p.Elapse(0.5) // a middle rank is moderately late
		}
		p.World().Scan(64)
		exits[p.Rank()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 0 and 1 must not wait for rank 2 or 7.
	if exits[0] > 0.4 || exits[1] > 0.4 {
		t.Errorf("low ranks waited: exits %g %g", exits[0], exits[1])
	}
	// Ranks above 2 wait for rank 2's contribution.
	for r := 3; r < 8; r++ {
		if exits[r] < 0.5 {
			t.Errorf("rank %d exited at %g before rank 2's contribution", r, exits[r])
		}
	}
	// Rank 7 additionally pays its own lateness.
	if exits[7] < 1.0 {
		t.Errorf("rank 7 exited at %g", exits[7])
	}
}

func TestGatherScatterComplete(t *testing.T) {
	w, _ := newTestWorld(1, 8)
	err := w.Run(func(p *Proc) {
		p.World().Gather(3, 2048)
		p.World().Scatter(3, 2048)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveMismatchPanics(t *testing.T) {
	w, _ := newTestWorld(1, 2)
	err := w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.World().Barrier()
		} else {
			p.World().Allreduce(8)
		}
	})
	if err == nil {
		t.Fatalf("mismatched collectives did not fail")
	}
}

func TestSplitGroupsAndOrder(t *testing.T) {
	w, _ := newTestWorld(1, 8)
	sizes := make([]int, 8)
	ranks := make([]int, 8)
	err := w.Run(func(p *Proc) {
		// Even ranks → color 0, odd → color 1; key reverses order.
		c := p.World().Split(p.Rank()%2, -p.Rank())
		sizes[p.Rank()] = c.Size()
		ranks[p.Rank()] = c.Rank()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		if sizes[r] != 4 {
			t.Errorf("rank %d: split size %d", r, sizes[r])
		}
	}
	// Key -rank reverses: world rank 6 (largest even) gets comm rank 0.
	if ranks[6] != 0 || ranks[0] != 3 {
		t.Errorf("split ordering by key broken: %v", ranks)
	}
}

func TestSplitNegativeColor(t *testing.T) {
	w, _ := newTestWorld(1, 4)
	err := w.Run(func(p *Proc) {
		color := 0
		if p.Rank() == 3 {
			color = -1
		}
		c := p.World().Split(color, 0)
		if p.Rank() == 3 {
			if c != nil {
				t.Errorf("negative color returned a communicator")
			}
		} else if c == nil || c.Size() != 3 {
			t.Errorf("rank %d: bad split result", p.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitCommunicatorIsUsable(t *testing.T) {
	w, _ := newTestWorld(1, 8)
	err := w.Run(func(p *Proc) {
		half := p.World().Split(p.Rank()/4, p.Rank())
		half.Barrier()
		if half.Rank() == 0 {
			half.Send(1, 9, 128)
		} else if half.Rank() == 1 {
			half.Recv(0, 9)
		}
		half.Allreduce(8)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPredefComm(t *testing.T) {
	w, _ := newTestWorld(1, 8)
	id := w.PredefComm([]int{1, 3, 5})
	err := w.Run(func(p *Proc) {
		c := p.Predef(id)
		switch p.Rank() {
		case 1, 3, 5:
			if c == nil || c.Size() != 3 {
				t.Errorf("rank %d: predef comm %v", p.Rank(), c)
			}
			if c.GlobalRank(c.Rank()) != p.Rank() {
				t.Errorf("rank translation broken")
			}
			c.Barrier()
		default:
			if c != nil {
				t.Errorf("rank %d is not a member but got a comm", p.Rank())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPredefAfterStartPanics(t *testing.T) {
	w, _ := newTestWorld(1, 2)
	w.Start(func(p *Proc) {})
	defer func() {
		if recover() == nil {
			t.Errorf("PredefComm after Start did not panic")
		}
	}()
	w.PredefComm([]int{0})
}

func TestSpansMetahosts(t *testing.T) {
	w, _ := newTestWorld(1, 8)
	intra := w.PredefComm([]int{0, 1, 2}) // all on metahost 0
	inter := w.PredefComm([]int{0, 4})    // crosses metahosts
	err := w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			if p.Predef(intra).SpansMetahosts() {
				t.Errorf("intra-metahost comm reported as spanning")
			}
			if !p.Predef(inter).SpansMetahosts() {
				t.Errorf("inter-metahost comm not reported as spanning")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeUsesKernelSpeed(t *testing.T) {
	w, _ := newTestWorld(1, 2)
	var tPlain, tFast float64
	err := w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			start := p.Now()
			p.Compute("", 1.0)
			tPlain = p.Now() - start
			start = p.Now()
			p.Compute("fast", 1.0)
			tFast = p.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tPlain-1.0) > 1e-9 || math.Abs(tFast-0.5) > 1e-9 {
		t.Fatalf("compute times %g / %g, want 1.0 / 0.5", tPlain, tFast)
	}
}

func TestLatencyHierarchy(t *testing.T) {
	w, _ := newTestWorld(3, 8)
	// rank 0,1 same node; 0,2 same metahost different node; 0,4 external.
	var same, internal, external float64
	n := 200
	for i := 0; i < n; i++ {
		same += w.sampleLatency(0, 1)
		internal += w.sampleLatency(0, 2)
		external += w.sampleLatency(0, 4)
	}
	same, internal, external = same/float64(n), internal/float64(n), external/float64(n)
	if !(same < internal && internal < external) {
		t.Fatalf("latency hierarchy violated: %g %g %g", same, internal, external)
	}
	if external < 20*internal {
		t.Fatalf("external latency should dwarf internal: %g vs %g", external, internal)
	}
}

func TestRouteAsymmetryAntisymmetric(t *testing.T) {
	w, _ := newTestWorld(3, 8)
	l, class := w.link(0, 4)
	d1 := w.routeAsymmetry(0, 4, l, class)
	d2 := w.routeAsymmetry(4, 0, l, class)
	if d1 != -d2 {
		t.Fatalf("asymmetry not antisymmetric: %g vs %g", d1, d2)
	}
	if d1 == 0 {
		t.Fatalf("external route got zero asymmetry (improbable)")
	}
	// Same node: zero.
	l2, class2 := w.link(0, 1)
	if w.routeAsymmetry(0, 1, l2, class2) != 0 {
		t.Fatalf("same-node route has asymmetry")
	}
	// Stable across calls.
	if w.routeAsymmetry(0, 4, l, class) != d1 {
		t.Fatalf("asymmetry not stable")
	}
}

func TestTransferTimeScalesWithBytes(t *testing.T) {
	w, _ := newTestWorld(1, 8)
	small := w.transferTime(0, 2, 1000)
	big := w.transferTime(0, 2, 1000000)
	if math.Abs(big/small-1000) > 1e-6 {
		t.Fatalf("transfer time not linear in bytes: %g %g", small, big)
	}
	if w.transferTime(0, 2, 0) != 0 {
		t.Fatalf("zero bytes cost time")
	}
}

func TestWorldRunDeterministic(t *testing.T) {
	run := func(seed int64) []float64 {
		w, _ := newTestWorld(seed, 8)
		out := make([]float64, 8)
		err := w.Run(func(p *Proc) {
			c := p.World()
			for i := 0; i < 10; i++ {
				dst := (p.Rank() + 1) % c.Size()
				src := (p.Rank() + c.Size() - 1) % c.Size()
				c.Sendrecv(dst, 1, 512, src, 1)
				c.Allreduce(8)
			}
			out[p.Rank()] = p.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !reflect.DeepEqual(run(9), run(9)) {
		t.Fatalf("same seed produced different completion times")
	}
	if reflect.DeepEqual(run(9), run(10)) {
		t.Fatalf("different seeds produced identical completion times")
	}
}

func TestRingExchangeManyRounds(t *testing.T) {
	// Stress the matching machinery with varying partners, mirroring
	// the clock benchmark's communication structure.
	w, _ := newTestWorld(2, 8)
	total := 0
	err := w.Run(func(p *Proc) {
		c := p.World()
		n := c.Size()
		for r := 1; r < 50; r++ {
			s := r%(n-1) + 1
			st := c.Sendrecv((p.Rank()+s)%n, 4, 64, (p.Rank()-s+n)%n, 4)
			if st.Bytes != 64 {
				t.Errorf("bad status %+v", st)
			}
			total++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 8*49 {
		t.Fatalf("total exchanges %d", total)
	}
}

// TestDeadlockDetectedOnMissingSend pins the deadlock report, line by
// line, for each way an mmpi process can wait forever: a receive whose
// send never comes, a rendezvous send whose receive is never posted,
// and a collective that one member never calls.
func TestDeadlockDetectedOnMissingSend(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		sub  []int // members of communicator 1, if any
		body func(p *Proc)
		want []string
	}{
		{"recv", 2, nil, func(p *Proc) {
			if p.Rank() == 1 {
				p.World().Recv(0, 99) // never sent
			}
		}, []string{"rank1: mpi wait (recv)"}},
		{"wait", 4, nil, func(p *Proc) {
			c := p.World()
			switch p.Rank() {
			case 0:
				c.Wait(c.Isend(2, 5, 1<<20)) // rendezvous: needs the receive
			case 3:
				c.Waitall([]*Request{c.Isend(1, 6, 8), c.Irecv(AnySource, 6)})
			}
		}, []string{"rank0: mpi wait (send)", "rank3: mpi wait (recv)"}},
		{"collective", 4, nil, func(p *Proc) {
			if p.Rank() == 3 {
				return // never joins
			}
			p.World().Barrier()
		}, []string{"rank0: MPI_Barrier on comm 0", "rank1: MPI_Barrier on comm 0", "rank2: MPI_Barrier on comm 0"}},
		{"subcomm", 4, []int{1, 2, 3}, func(p *Proc) {
			if c := p.Predef(1); c != nil && p.Rank() != 2 {
				c.Allreduce(64)
			}
		}, []string{"rank1: MPI_Allreduce on comm 1", "rank3: MPI_Allreduce on comm 1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := newTestWorld(1, tc.n)
			if tc.sub != nil {
				w.PredefComm(tc.sub)
			}
			err := w.Run(tc.body)
			var dl *sim.DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v, want a deadlock", err)
			}
			if !reflect.DeepEqual(dl.Waiting, tc.want) {
				t.Fatalf("deadlock report %q, want %q", dl.Waiting, tc.want)
			}
		})
	}
}

func TestCommAccessors(t *testing.T) {
	w, _ := newTestWorld(1, 4)
	err := w.Run(func(p *Proc) {
		c := p.World()
		if c.ID() != 0 {
			t.Errorf("world comm id %d", c.ID())
		}
		if c.Size() != 4 || c.Rank() != p.Rank() {
			t.Errorf("size/rank wrong")
		}
		rs := c.Ranks()
		if len(rs) != 4 || rs[2] != 2 {
			t.Errorf("ranks %v", rs)
		}
		rs[0] = 99 // must be a copy
		if c.Ranks()[0] == 99 {
			t.Errorf("Ranks returned internal slice")
		}
		if c.Proc() != p {
			t.Errorf("Proc() mismatch")
		}
		if p.Metahost().Name == "" {
			t.Errorf("empty metahost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArgumentsPanic(t *testing.T) {
	cases := []func(c *Comm){
		func(c *Comm) { c.Send(99, 1, 8) },
		func(c *Comm) { c.Send(-1, 1, 8) },
		func(c *Comm) { c.Send(1, -5, 8) },
		func(c *Comm) { c.Irecv(99, 1) },
	}
	for i, breakIt := range cases {
		w, _ := newTestWorld(1, 2)
		i, breakIt := i, breakIt
		err := w.Run(func(p *Proc) {
			if p.Rank() == 0 {
				breakIt(p.World())
			}
		})
		if err == nil {
			t.Errorf("case %d: invalid argument did not fail", i)
		}
	}
}

func TestCollectiveOnSubsetTimesIndependently(t *testing.T) {
	// A barrier on a predefined sub-communicator must not wait for
	// non-members.
	w, _ := newTestWorld(1, 8)
	id := w.PredefComm([]int{0, 1, 2, 3})
	exits := make([]float64, 8)
	err := w.Run(func(p *Proc) {
		if p.Rank() >= 4 {
			p.Elapse(10) // non-members are busy for a long time
			return
		}
		c := p.Predef(id)
		p.Elapse(0.1)
		c.Barrier()
		exits[p.Rank()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if exits[r] > 1.0 {
			t.Errorf("subset barrier waited for non-members (rank %d exit %g)", r, exits[r])
		}
	}
}

func TestManyWorldsIsolated(t *testing.T) {
	// Two worlds on the same engine must not share matching state.
	eng := sim.NewEngine(1)
	mc := testTopo()
	p1 := topology.NewPlacement(mc)
	p1.MustPlace(0, 0, 2, 1)
	p2 := topology.NewPlacement(mc)
	p2.MustPlace(1, 0, 2, 1)
	w1 := NewWorld(eng, p1)
	w2 := NewWorld(eng, p2)
	got := make(chan int, 2)
	w1.Start(func(p *Proc) {
		if p.Rank() == 0 {
			p.World().SendData(1, 1, 8, 111)
		} else {
			got <- p.World().Recv(0, 1).Data.(int)
		}
	})
	w2.Start(func(p *Proc) {
		if p.Rank() == 0 {
			p.World().SendData(1, 1, 8, 222)
		} else {
			got <- p.World().Recv(0, 1).Data.(int)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	close(got)
	sum := 0
	for v := range got {
		sum += v
	}
	if sum != 333 {
		t.Fatalf("cross-world delivery: sum %d", sum)
	}
}

func TestCollKindString(t *testing.T) {
	if fmt.Sprint(collBarrier) != "Barrier" || fmt.Sprint(collKind(99)) != "collKind(99)" {
		t.Errorf("collKind.String broken")
	}
}
