package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps/rft"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/ratectl"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The micro-benchmarks in this file isolate the simulator's per-packet hot
// paths — scheduler timer churn, port enqueue/dequeue, the RED decision
// path, and a full dumbbell world — so the CI bench-gate can localize a
// regression instead of only seeing it smeared across a whole figure run.
// All of them ReportAllocs: the engine's contract is an allocation-free
// steady state, and allocs/op is the machine-independent half of the gate.

// BenchmarkSchedulerChurn models the TCP retransmission-timer pattern that
// dominates scheduler load: every "ACK" cancels a pending timer and arms a
// new one (Cancel removes the entry from the heap at once), with the timer
// itself almost never firing.
func BenchmarkSchedulerChurn(b *testing.B) {
	b.ReportAllocs()
	const acks = 100000
	for i := 0; i < b.N; i++ {
		s := sim.NewScheduler()
		timeout := func() {}
		var rto sim.Timer
		n := 0
		var ack func()
		ack = func() {
			if rto.Pending() {
				s.Cancel(rto)
			}
			rto = s.After(200*sim.Millisecond, timeout)
			n++
			if n < acks {
				s.After(10*sim.Microsecond, ack)
			}
		}
		s.After(0, ack)
		s.Run()
		if n != acks {
			b.Fatalf("ran %d acks", n)
		}
	}
}

// BenchmarkSchedulerWheelChurn (named for the timing wheel that once
// fronted the heap) is a cancel-heavy mixed-horizon load: every step arms
// a short timer (300 µs) that fires, re-arms a medium timer (50 ms) after
// cancelling the previous one, and advances simulated time so the medium
// timers are always many steps from due. Together with
// BenchmarkSchedulerChurn (near-horizon churn) it pins the eager-cancel
// path with a deeper queue.
func BenchmarkSchedulerWheelChurn(b *testing.B) {
	b.ReportAllocs()
	const steps = 100000
	for i := 0; i < b.N; i++ {
		s := sim.NewScheduler()
		noop := func() {}
		var far sim.Timer
		n := 0
		var step func()
		step = func() {
			if far.Pending() {
				s.Cancel(far)
			}
			far = s.After(50*sim.Millisecond, noop)
			s.After(300*sim.Microsecond, noop) // fires
			n++
			if n < steps {
				s.After(20*sim.Microsecond, step)
			}
		}
		s.After(0, step)
		s.Run()
		if n != steps {
			b.Fatalf("ran %d steps", n)
		}
	}
}

// BenchmarkWorldInstantiate measures the compiled-topology lifecycle on a
// 16-pair dumbbell: the Program is compiled once, and each op stamps out
// one world (Instantiate) then rewinds it seven times with fresh seeds
// (Reset) — the one-build-many-resets shape replication sweeps produce.
// The reset path is the one that must stay near allocation-free.
func BenchmarkWorldInstantiate(b *testing.B) {
	b.ReportAllocs()
	const pairs = 16
	delays := make([]sim.Duration, pairs)
	for i := range delays {
		delays[i] = 5 * sim.Millisecond
	}
	spec := topo.DumbbellSpec(netsim.DumbbellConfig{
		BottleneckRate:  100_000_000,
		BottleneckDelay: sim.Millisecond,
		AccessRate:      1_000_000_000,
		AccessDelays:    delays,
		Buffer:          64,
	})
	prog, err := topo.Compile(spec)
	if err != nil {
		b.Fatal(err)
	}
	sched := sim.NewScheduler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Reset()
		net, err := prog.Instantiate(sched, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 7; r++ {
			sched.Reset()
			if err := net.Reset(spec, int64(r+1)); err != nil {
				b.Fatal(err)
			}
		}
		if net.NumFlows() != pairs {
			b.Fatalf("world has %d flows, want %d", net.NumFlows(), pairs)
		}
	}
}

// BenchmarkLinkEnqueueDequeue drives one overloaded DropTail port: bursts
// arrive faster than the link drains, so the benchmark exercises enqueue,
// serialization scheduling, delivery and the drop-recycle path together.
func BenchmarkLinkEnqueueDequeue(b *testing.B) {
	b.ReportAllocs()
	const total = 100000
	for i := 0; i < b.N; i++ {
		sched := sim.NewScheduler()
		pool := netsim.NewPacketPool()
		delivered := 0
		sink := netsim.HandlerFunc(func(p *netsim.Packet) {
			delivered++
			pool.Put(p)
		})
		port := netsim.NewPort(sched, netsim.NewDropTail(64),
			netsim.NewLink(1_000_000_000, sim.Microsecond, sink))
		port.Pool = pool

		sent := 0
		var feed func()
		feed = func() {
			// 12 packets per 100 µs of 1000 B ≈ 960 Mbps offered on a
			// 1 Gbps link, plus bursts: most forward, some drop.
			for j := 0; j < 12 && sent < total; j++ {
				p := pool.Get()
				p.Size = 1000
				sent++
				port.Handle(p)
			}
			if sent < total {
				sched.After(100*sim.Microsecond, feed)
			}
		}
		sched.After(0, feed)
		sched.Run()
		if uint64(total) != port.Forwarded()+port.Dropped {
			b.Fatalf("sent %d, forwarded %d + dropped %d", total, port.Forwarded(), port.Dropped)
		}
		if delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// BenchmarkPortDrain measures the port's deep-queue drain in isolation:
// one op fills a 4096-packet DropTail backlog in a single burst, then runs
// the world until the last packet is delivered. On the batched path the
// whole drain is one serialization chain (the txDone timer re-armed in
// place) plus one delivery ring (a single timer walking the ring), so the
// per-packet cost is the pure dequeue-and-rearm hot path — and the steady
// state must be allocation-free: scheduler, pool, port and ring are reused
// across ops, so allocs/op is gated at exactly zero.
func BenchmarkPortDrain(b *testing.B) {
	b.ReportAllocs()
	const depth = 4096
	sched := sim.NewScheduler()
	pool := netsim.NewPacketPool()
	delivered := 0
	sink := netsim.HandlerFunc(func(p *netsim.Packet) {
		delivered++
		pool.Put(p)
	})
	port := netsim.NewPort(sched, netsim.NewDropTail(depth),
		netsim.NewLink(1_000_000_000, sim.Millisecond, sink))
	port.Pool = pool
	fill := func() {
		for j := 0; j < depth; j++ {
			p := pool.Get()
			p.Size = 1000
			port.Handle(p)
		}
	}
	run := func() {
		sched.Reset()
		port.Reset()
		delivered = 0
		sched.At(0, fill)
		sched.Run()
		if delivered != depth {
			b.Fatalf("delivered %d of %d", delivered, depth)
		}
	}
	run() // warm the pool, the delivery ring and the scheduler arena
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkREDDropPath isolates the RED decision arithmetic (EWMA update,
// uniformized drop probability, idle aging) at an operating point inside
// the [minTh, maxTh) probabilistic band, where the math is hottest.
func BenchmarkREDDropPath(b *testing.B) {
	b.ReportAllocs()
	const offered = 200000
	for i := 0; i < b.N; i++ {
		rng := sim.NewRand(int64(i + 1))
		q := netsim.NewRED(netsim.REDConfig{
			Limit: 64, MinTh: 8, MaxTh: 32, MaxP: 0.1,
			PacketsPerSecond: 12500,
		}, rng)
		pool := netsim.NewPacketPool()
		drops := 0
		now := 0.0
		for k := 0; k < offered; k++ {
			p := pool.Get()
			p.Size = 1000
			if !q.EnqueueAt(p, now) {
				drops++
				pool.Put(p)
			}
			// Drain slower than we offer so the average sits in the band.
			if k%3 != 0 {
				if d := q.Dequeue(); d != nil {
					pool.Put(d)
				}
			}
			now += 80e-6
		}
		if drops == 0 {
			b.Fatal("RED never dropped at overload")
		}
	}
}

// syntheticLossTrace builds one bursty loss trace for the analysis
// benchmarks: clusters of back-to-back drops separated by multi-RTT gaps,
// the shape every scenario produces. Deterministic, so batch and
// streaming analyze identical input.
func syntheticLossTrace(n int) ([]sim.Time, sim.Duration) {
	const rtt = 50 * sim.Millisecond
	out := make([]sim.Time, 0, n)
	var t sim.Time
	for len(out) < n {
		t = t.Add(3 * rtt) // inter-burst gap
		for i := 0; i < 7 && len(out) < n; i++ {
			t = t.Add(rtt / 100) // sub-RTT clustering
			out = append(out, t)
		}
	}
	return out, rtt
}

// BenchmarkAnalyzeBatch measures the seed measurement pipeline: a
// recorder retains the trace, then the batch Analyze pass materializes
// intervals, normalized times, sort copies and PMF slices. Its allocs/op
// is the cost the streaming engine removes.
func BenchmarkAnalyzeBatch(b *testing.B) {
	b.ReportAllocs()
	times, rtt := syntheticLossTrace(20000)
	for i := 0; i < b.N; i++ {
		rec := &trace.Recorder{}
		for k, at := range times {
			rec.Add(trace.LossEvent{At: at, Flow: k % 16, Seq: int64(k)})
		}
		rep, err := analysis.AnalyzeTrace(rec, rtt, analysis.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.CoV, "cov")
	}
}

// BenchmarkAnalyzeStreaming measures the online pipeline on the identical
// trace: a sink-mode recorder feeds the analyzer event by event and the
// scratch (histogram, reservoir, PMF and sort buffers) is reused across
// iterations exactly as a sweep worker reuses it across replications —
// the steady state is allocation-free except for the bounded one-time
// scratch growth.
func BenchmarkAnalyzeStreaming(b *testing.B) {
	b.ReportAllocs()
	times, rtt := syntheticLossTrace(20000)
	an, err := analysis.NewStreaming(rtt, analysis.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rec := &trace.Recorder{}
	rec.SetSink(an.Observe, false)
	run := func() *analysis.Report {
		if err := an.Reset(rtt, analysis.Config{}); err != nil {
			b.Fatal(err)
		}
		for k, at := range times {
			rec.Add(trace.LossEvent{At: at, Flow: k % 16, Seq: int64(k)})
		}
		rep, err := an.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	run() // warm the scratch: steady state is what the gate defends
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run().CoV, "cov")
	}
}

// wifiBenchSeed seeds BenchmarkWifiGilbertSecond's world. Its second drops
// on the wire, as the bench checks; not every seed's does (of seeds
// 1–200, 77 and 188 see no wire drop in the first simulated second).
const wifiBenchSeed = 1

// BenchmarkWifiGilbertSecond runs one simulated second of a time-varying
// world — 8 TCP flows over a random-walk-modulated wireless hop with a
// Gilbert–Elliott wire dropper — so the link-dynamics path (modulator
// retunes, per-packet chain draws, wire-drop recycling) sits in the CI
// bench-gate smoke set next to the static DumbbellSecond. Every op runs
// the same world, seeded wifiBenchSeed, so the work and the reported
// metrics do not depend on b.N.
func BenchmarkWifiGilbertSecond(b *testing.B) {
	b.ReportAllocs()
	spec := topo.Spec{Name: "wifi-bench"}
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "ap"}, topo.NodeSpec{Name: "gw"})
	spec.Links = append(spec.Links, topo.LinkSpec{
		A: "ap", B: "gw",
		AB: topo.Dir{
			Rate: 30_000_000, Delay: 3 * sim.Millisecond,
			Queue: topo.QueueSpec{Limit: 64},
			Dynamics: &topo.DynamicsSpec{Walk: &topo.WalkSpec{
				Min: 12_000_000, Max: 54_000_000, Factor: 1.3, Interval: 20 * sim.Millisecond,
			}},
			Loss: &topo.LossSpec{PGB: 0.003, PBG: 0.25, KGood: 0, KBad: 0.9},
		},
		BA: topo.Dir{Rate: 30_000_000, Delay: 3 * sim.Millisecond},
	})
	for j := 0; j < 8; j++ {
		snd, rcv := fmt.Sprintf("s%d", j), fmt.Sprintf("r%d", j)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: snd}, topo.NodeSpec{Name: rcv})
		access := topo.Dir{Rate: 1_000_000_000, Delay: sim.Duration(3+3*j) * sim.Millisecond}
		spec.Links = append(spec.Links,
			topo.LinkSpec{A: snd, B: "ap", AB: access},
			topo.LinkSpec{A: "gw", B: rcv, AB: access},
		)
		spec.Flows = append(spec.Flows, topo.FlowSpec{From: snd, To: rcv})
	}
	for i := 0; i < b.N; i++ {
		sched := sim.NewScheduler()
		pool := netsim.NewPacketPool()
		net, err := topo.Build(sched, spec, wifiBenchSeed)
		if err != nil {
			b.Fatal(err)
		}
		net.AttachPool(pool)
		for j := 0; j < net.NumFlows(); j++ {
			f := tcp.NewPairFlow(sched, net.FlowSender(j), net.FlowReceiver(j), j+1, tcp.Config{
				InitialRTT: net.FlowRTT(j),
				Pool:       pool,
			})
			f.Sender.Start()
		}
		sched.RunUntil(sim.Time(sim.Second))
		hop := net.Port("ap", "gw")
		if hop.Forwarded() == 0 {
			b.Fatal("wireless hop forwarded nothing")
		}
		if hop.LinkDropped == 0 {
			b.Fatal("GE chain never dropped on the wire")
		}
		b.ReportMetric(float64(sched.Fired()), "events")
		b.ReportMetric(float64(hop.Dropped+hop.LinkDropped), "drops")
		b.ReportMetric(float64(sched.Fired())/float64(net.Forwarded()), "events_per_pkt")
	}
}

// BenchmarkDumbbellSecond runs one simulated second of a loaded dumbbell —
// 8 TCP flows into a 50 Mbps bottleneck — end to end: transports, nodes,
// ports, queues and scheduler together, the world every figure scales up.
func BenchmarkDumbbellSecond(b *testing.B) {
	b.ReportAllocs()
	delays := make([]sim.Duration, 8)
	for i := range delays {
		delays[i] = sim.Duration(5+5*i) * sim.Millisecond
	}
	for i := 0; i < b.N; i++ {
		sched := sim.NewScheduler()
		pool := netsim.NewPacketPool()
		d := topo.NewDumbbell(sched, netsim.DumbbellConfig{
			BottleneckRate: 50_000_000,
			AccessRate:     1_000_000_000,
			AccessDelays:   delays,
			Buffer:         64,
		})
		d.AttachPool(pool)
		for j := range delays {
			f := tcp.NewPairFlow(sched, d.SenderNode(j), d.ReceiverNode(j), j+1, tcp.Config{
				InitialRTT: 2 * delays[j],
				Pool:       pool,
			})
			f.Sender.Start()
		}
		sched.RunUntil(sim.Time(sim.Second))
		if d.Forward.Forwarded() == 0 {
			b.Fatal("bottleneck forwarded nothing")
		}
		b.ReportMetric(float64(sched.Fired()), "events")
		b.ReportMetric(float64(sched.Fired())/float64(d.Net.Forwarded()), "events_per_pkt")
	}
}

// BenchmarkOveruseDetector runs the receiver-side congestion pipeline —
// burst grouping, Kalman gradient filter, adaptive-threshold detector and
// AIMD controller — over a precomputed sawtooth of queue build-ups and
// drains, with no world around it. This is the per-packet cost a GCC
// receiver adds on top of plain forwarding, and it must stay
// allocation-free: every stage reuses its own state across resets.
func BenchmarkOveruseDetector(b *testing.B) {
	b.ReportAllocs()
	type pkt struct {
		send, arrive sim.Time
		size         int
	}
	// 20k packets, 1 ms apart in send time, riding a queue sawtooth: ramps
	// of +0.05 ms/packet alternate with drains back to the floor, plus
	// seeded sub-millisecond jitter so the filters do real smoothing work.
	rng := sim.NewRand(9)
	pkts := make([]pkt, 20000)
	queue := 0.0
	for i := range pkts {
		if (i/400)%2 == 0 {
			queue += 0.05
		} else if queue > 0 {
			queue -= 0.05
		}
		send := sim.Time(sim.Duration(i) * sim.Millisecond)
		lat := 20 + queue + rng.Float64()*0.3
		pkts[i] = pkt{
			send:   send,
			arrive: send.Add(sim.Duration(lat * float64(sim.Millisecond))),
			size:   1000,
		}
	}
	var ia ratectl.InterArrival
	kal := ratectl.NewKalmanEstimator()
	det := ratectl.NewOveruseDetector()
	aimd := ratectl.NewAIMDController(125_000, 12_500, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ia.Reset()
		kal.Reset()
		det.Reset()
		aimd.Reset(125_000, 12_500, 0)
		for _, p := range pkts {
			d, ok := ia.Add(p.send, p.arrive, p.size)
			if !ok {
				continue
			}
			st := det.Update(kal.Update(d), d.Arrival)
			aimd.Update(st, 250_000, d.Arrival)
		}
		if det.OveruseHits == 0 || aimd.Decreases == 0 {
			b.Fatal("sawtooth never tripped the detector")
		}
	}
}

// BenchmarkRatectlSecond runs one simulated second of two delay-based
// flows sharing a static 6 Mbps bottleneck, replayed through the cached
// world: per op the arena rewinds the scheduler, Network.Reset reseeds the
// compiled topology and GCCFlow.ResetPair rewinds the transports. The spec
// deliberately has no Dynamics and no Loss — those reseed paths allocate
// (modulator rebuild, loss-hook rebind) and belong to WorldInstantiate;
// here the gate is the ratectl contract: a steady-state second of pacing,
// grouping, estimation and feedback at 0 allocs/op.
func BenchmarkRatectlSecond(b *testing.B) {
	b.ReportAllocs()
	const seed = 3
	spec := topo.Spec{Name: "ratectl-second"}
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "left"}, topo.NodeSpec{Name: "right"})
	hop := topo.Dir{Rate: 6_000_000, Delay: 20 * sim.Millisecond, Queue: topo.QueueSpec{Limit: 40}}
	spec.Links = append(spec.Links, topo.LinkSpec{A: "left", B: "right", AB: hop, BA: hop})
	for i := 0; i < 2; i++ {
		snd, rcv := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: snd}, topo.NodeSpec{Name: rcv})
		access := topo.Dir{Rate: 1_000_000_000, Delay: sim.Duration(2+2*i) * sim.Millisecond}
		spec.Links = append(spec.Links,
			topo.LinkSpec{A: snd, B: "left", AB: access},
			topo.LinkSpec{A: "right", B: rcv, AB: access},
		)
		spec.Flows = append(spec.Flows, topo.FlowSpec{From: snd, To: rcv, Kind: topo.FlowGCC})
	}

	arena := exp.NewArena()
	sched := arena.Scheduler()
	net, err := topo.NetworkIn(arena, sched, spec, sim.SubSeed(seed, 1))
	if err != nil {
		b.Fatal(err)
	}
	net.AttachPool(arena.Pool())
	var flows []*ratectl.GCCFlow
	run := func() *sim.Scheduler {
		sched := arena.Scheduler()
		if err := net.Reset(spec, sim.SubSeed(seed, 1)); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < net.NumFlows(); i++ {
			cfg := ratectl.GCCConfig{
				InitialRTT: net.FlowRTT(i),
				Estimator:  ratectl.EstimatorKind(i % 2),
				Seed:       sim.SubSeed(seed, int64(1000+i)),
				Pool:       arena.Pool(),
			}
			if flows == nil {
				flows = make([]*ratectl.GCCFlow, 0, net.NumFlows())
			}
			if i == len(flows) {
				flows = append(flows, ratectl.NewGCCFlow(sched, net.FlowSender(i), net.FlowReceiver(i), i+1, cfg))
			} else {
				flows[i].ResetPair(net.FlowSender(i), net.FlowReceiver(i), i+1, cfg)
			}
			flows[i].StartAt(sched, sim.Time(sim.Duration(i)*10*sim.Millisecond))
		}
		sched.RunUntil(sim.Time(sim.Second))
		return sched
	}
	run() // warm the pool, scheduler arena and flow objects
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := run()
		if flows[0].Sender.Sent == 0 || flows[0].Sender.FeedbackIn == 0 {
			b.Fatal("flow exchanged no data or feedback")
		}
		b.ReportMetric(float64(sched.Fired()), "events")
	}
}

// BenchmarkRFTTransferSecond runs one simulated second of two reliable
// file transfers sharing a static 10 Mbps bottleneck, replayed through the
// cached world: per op the arena rewinds the scheduler, Network.Reset
// reseeds the compiled topology and rft.Flow.ResetPair rewinds the
// transfer pairs. Like RatectlSecond the spec carries no Dynamics and no
// Loss; the gate is the transfer contract — a steady-state second of
// pacing, ledger upkeep, client ACKs and AIMD updates at 0 allocs/op on
// warm sentAt/bitmap/resend capacity.
func BenchmarkRFTTransferSecond(b *testing.B) {
	b.ReportAllocs()
	const seed = 3
	spec := topo.Spec{Name: "rft-second"}
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "left"}, topo.NodeSpec{Name: "right"})
	hop := topo.Dir{Rate: 10_000_000, Delay: 10 * sim.Millisecond, Queue: topo.QueueSpec{Limit: 100}}
	spec.Links = append(spec.Links, topo.LinkSpec{A: "left", B: "right", AB: hop, BA: hop})
	for i := 0; i < 2; i++ {
		snd, rcv := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: snd}, topo.NodeSpec{Name: rcv})
		access := topo.Dir{Rate: 1_000_000_000, Delay: sim.Duration(2+2*i) * sim.Millisecond}
		spec.Links = append(spec.Links,
			topo.LinkSpec{A: snd, B: "left", AB: access},
			topo.LinkSpec{A: "right", B: rcv, AB: access},
		)
		spec.Flows = append(spec.Flows, topo.FlowSpec{From: snd, To: rcv, Kind: topo.FlowRFT})
	}

	arena := exp.NewArena()
	sched := arena.Scheduler()
	net, err := topo.NetworkIn(arena, sched, spec, sim.SubSeed(seed, 1))
	if err != nil {
		b.Fatal(err)
	}
	net.AttachPool(arena.Pool())
	var flows []*rft.Flow
	run := func() *sim.Scheduler {
		sched := arena.Scheduler()
		if err := net.Reset(spec, sim.SubSeed(seed, 1)); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < net.NumFlows(); i++ {
			cfg := rft.Config{
				ChunkSize:  1000,
				Chunks:     512,
				InitialRTT: net.FlowRTT(i),
				Seed:       sim.SubSeed(seed, int64(1000+i)),
				Pool:       arena.Pool(),
			}
			if flows == nil {
				flows = make([]*rft.Flow, 0, net.NumFlows())
			}
			if i == len(flows) {
				flows = append(flows, rft.NewFlow(sched, net.FlowSender(i), net.FlowReceiver(i), i+1, cfg))
			} else {
				flows[i].ResetPair(net.FlowSender(i), net.FlowReceiver(i), i+1, cfg)
			}
			flows[i].StartAt(sched, sim.Time(sim.Duration(i)*10*sim.Millisecond))
		}
		sched.RunUntil(sim.Time(sim.Second))
		return sched
	}
	// Warm twice: the first run takes the creation path (NewFlow, pool and
	// arena growth), the second the ResetPair replay path the timed loop
	// measures — both must have grown their storage before the timer starts.
	run()
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := run()
		if flows[0].Sender.Sent == 0 || flows[0].Receiver.AcksOut == 0 {
			b.Fatal("transfer exchanged no data or reports")
		}
		b.ReportMetric(float64(sched.Fired()), "events")
	}
}
