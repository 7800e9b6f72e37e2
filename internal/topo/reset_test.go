package topo_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

// cloneSpec copies a spec's slices so a test case can edit one without
// touching the others.
func cloneSpec(s topo.Spec) topo.Spec {
	s.Nodes = slices.Clone(s.Nodes)
	s.Links = slices.Clone(s.Links)
	s.Flows = slices.Clone(s.Flows)
	return s
}

// portDrop is one loss at one of a network's ports.
type portDrop struct {
	port int
	at   sim.Time
	flow int
	seq  int64
}

// runChainWorkload drives both chain flows with TCP for a few seconds and
// returns the merged drop trace of every port.
func runChainWorkload(sched *sim.Scheduler, net *topo.Network) []portDrop {
	var drops []portDrop
	for i, pi := range net.Ports() {
		pi.Port.OnDrop = func(p *netsim.Packet, at sim.Time) {
			drops = append(drops, portDrop{port: i, at: at, flow: p.Flow, seq: p.Seq})
		}
	}
	for i := 0; i < net.NumFlows(); i++ {
		f := tcp.NewPairFlow(sched, net.FlowSender(i), net.FlowReceiver(i), i+1, tcp.Config{})
		f.StartAt(sched, sim.Time(sim.Duration(i)*7*sim.Millisecond))
	}
	sched.RunUntil(sim.Time(4 * sim.Second))
	return drops
}

// TestResetRejectsStructuralChanges: Network.Reset refuses every spec whose
// structure differs from the compiled program — the allocated nodes, ports,
// queue types and routes could not represent it — and a refused Reset
// leaves the world intact: a later valid Reset still reproduces a fresh
// Build drop for drop.
func TestResetRejectsStructuralChanges(t *testing.T) {
	t.Parallel()
	red := &topo.REDSpec{MinTh: 2, MaxTh: 8, MaxP: 0.1}
	base := chainSpec(5, red)
	rename := func(s topo.Spec, from, to string) topo.Spec {
		s = cloneSpec(s)
		for i := range s.Nodes {
			if s.Nodes[i].Name == from {
				s.Nodes[i].Name = to
			}
		}
		for i, l := range s.Links {
			if l.A == from {
				s.Links[i].A = to
			}
			if l.B == from {
				s.Links[i].B = to
			}
		}
		for i, f := range s.Flows {
			if f.From == from {
				s.Flows[i].From = to
			}
			if f.To == from {
				s.Flows[i].To = to
			}
		}
		return s
	}
	edit := func(f func(s *topo.Spec)) topo.Spec {
		s := cloneSpec(base)
		f(&s)
		return s
	}
	cases := map[string]topo.Spec{
		"node added":        edit(func(s *topo.Spec) { s.Nodes = append(s.Nodes, topo.NodeSpec{Name: "extra"}) }),
		"node renamed":      rename(base, "s1", "s9"),
		"node re-addressed": edit(func(s *topo.Spec) { s.Nodes[0].Addr = 99 }),
		"link endpoints swapped": edit(func(s *topo.Spec) {
			s.Links[0].A, s.Links[0].B = s.Links[0].B, s.Links[0].A
		}),
		"DropTail to RED": edit(func(s *topo.Spec) { s.Links[0].AB.Queue.RED = red }),
		"RED to DropTail": edit(func(s *topo.Spec) { s.Links[1].AB.Queue.RED = nil }),
		"Custom queue": edit(func(s *topo.Spec) {
			s.Links[2].AB.Queue.Custom = netsim.NewDropTail(5)
		}),
		"flow endpoints changed": edit(func(s *topo.Spec) { s.Flows[0].To = "r1" }),
		"flow added": edit(func(s *topo.Spec) {
			s.Flows = append(s.Flows, topo.FlowSpec{From: "s0", To: "r1"})
		}),
	}

	sched := sim.NewScheduler()
	net, err := topo.Build(sched, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	runChainWorkload(sched, net)
	for name, spec := range cases {
		sched.Reset()
		if err := net.Reset(spec, 2); err == nil {
			t.Errorf("%s: Reset accepted a structurally different spec", name)
		}
	}

	// A parametric retune of the same shape: bigger buffers, slower
	// inner hop, wire loss on the last hop and a rate oscillation on the
	// first.
	valid := edit(func(s *topo.Spec) {
		s.Links[0].AB.Queue.Limit = 9
		s.Links[0].AB.Dynamics = &topo.DynamicsSpec{Oscillate: &topo.OscillateSpec{
			Min: 2_000_000, Max: 4_000_000, Period: sim.Second, Interval: 100 * sim.Millisecond}}
		s.Links[1].AB.Rate = 1_500_000
		s.Links[2].AB.Loss = &topo.LossSpec{PGB: 0.02, PBG: 0.4, KBad: 0.3}
	})
	sched.Reset()
	if err := net.Reset(valid, 3); err != nil {
		t.Fatalf("valid Reset after refusals: %v", err)
	}
	warm := runChainWorkload(sched, net)

	freshSched := sim.NewScheduler()
	fresh, err := topo.Build(freshSched, valid, 3)
	if err != nil {
		t.Fatal(err)
	}
	cold := runChainWorkload(freshSched, fresh)
	if len(cold) == 0 {
		t.Fatal("the retuned chain never dropped; the comparison is vacuous")
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("reset world diverged from a fresh Build: %d vs %d drops", len(warm), len(cold))
	}
}

// TestNetworkInCachesEachShape: one arena serving two shapes under the
// same spec name keeps a world for each and hands the same instance back
// on every later run of that shape, with no allocation in the lookup and
// reset. Custom-queue worlds are never cached. Not parallel: the
// allocation count is process-wide.
func TestNetworkInCachesEachShape(t *testing.T) {
	a := exp.NewArena()
	red := &topo.REDSpec{MinTh: 2, MaxTh: 8, MaxP: 0.1}
	shapeA, shapeB := chainSpec(5, red), chainSpec(5, nil)
	get := func(spec topo.Spec, seed int64) *topo.Network {
		t.Helper()
		net, err := topo.NetworkIn(a, a.Scheduler(), spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	netA, netB := get(shapeA, 1), get(shapeB, 1)
	if netA == netB {
		t.Fatal("two shapes share one cached world")
	}
	retunedA := cloneSpec(shapeA)
	retunedA.Links[0].AB.Queue.Limit = 12
	if got := get(retunedA, 2); got != netA {
		t.Fatal("shape A was rebuilt instead of reset")
	}
	if got := get(shapeB, 3); got != netB {
		t.Fatal("shape B was rebuilt instead of reset")
	}
	if allocs := testing.AllocsPerRun(20, func() { get(shapeB, 4) }); allocs != 0 {
		t.Fatalf("cached lookup+reset allocated %.0f times per run", allocs)
	}

	custom := cloneSpec(shapeB)
	custom.Links[1].AB.Queue = topo.QueueSpec{Custom: netsim.NewDropTail(5)}
	first := get(custom, 1)
	custom.Links[1].AB.Queue = topo.QueueSpec{Custom: netsim.NewDropTail(5)}
	if get(custom, 1) == first {
		t.Fatal("a Custom-queue world was cached")
	}
	if get(shapeA, 5) != netA || get(shapeB, 5) != netB {
		t.Fatal("a Custom-queue build evicted a cached world")
	}
}
