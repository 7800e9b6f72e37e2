package repro_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/apps/rft"
	"repro/internal/netsim"
	"repro/internal/ratectl"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

// stateDiff walks got and want in lockstep and returns the path of the
// first difference, or "" when the two are equal. It reads unexported
// fields, follows pointers (identical pointers are equal without a walk),
// skips func values, and ignores spare slice capacity and ring slots: a
// slice is compared element by element over the longer length, with
// missing elements standing in as zero values.
func stateDiff(path string, got, want reflect.Value) string {
	if got.Kind() != want.Kind() {
		return fmt.Sprintf("%s: kind %v vs %v", path, got.Kind(), want.Kind())
	}
	switch got.Kind() {
	case reflect.Func:
		return ""
	case reflect.Pointer:
		if got.Pointer() == want.Pointer() {
			return ""
		}
		if got.IsNil() || want.IsNil() {
			return path + ": nil vs non-nil pointer"
		}
		return stateDiff("(*"+path+")", got.Elem(), want.Elem())
	case reflect.Interface:
		if got.IsNil() || want.IsNil() {
			if got.IsNil() != want.IsNil() {
				return path + ": nil vs non-nil interface"
			}
			return ""
		}
		if got.Elem().Type() != want.Elem().Type() {
			return fmt.Sprintf("%s: dynamic type %v vs %v", path, got.Elem().Type(), want.Elem().Type())
		}
		return stateDiff(path, got.Elem(), want.Elem())
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if d := stateDiff(path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		at := func(v reflect.Value, i int) reflect.Value {
			if i < v.Len() {
				return v.Index(i)
			}
			return reflect.Zero(v.Type().Elem())
		}
		for i := 0; i < max(got.Len(), want.Len()); i++ {
			if d := stateDiff(fmt.Sprintf("%s[%d]", path, i), at(got, i), at(want, i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if got.Len() != want.Len() {
			return fmt.Sprintf("%s: %d vs %d map entries", path, got.Len(), want.Len())
		}
		for _, k := range got.MapKeys() {
			w := want.MapIndex(k)
			if !w.IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, k)
			}
			if d := stateDiff(fmt.Sprintf("%s[%v]", path, k), got.MapIndex(k), w); d != "" {
				return d
			}
		}
		return ""
	case reflect.Bool:
		if got.Bool() != want.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, got.Bool(), want.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if got.Int() != want.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, got.Int(), want.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if got.Uint() != want.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, got.Uint(), want.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, got.Float(), want.Float())
		}
	case reflect.String:
		if got.String() != want.String() {
			return fmt.Sprintf("%s: %q vs %q", path, got.String(), want.String())
		}
	default:
		return fmt.Sprintf("%s: unhandled kind %v", path, got.Kind())
	}
	return ""
}

// TestResetLeavesNothingBehind drives every resettable transport and port
// component through a lossy world — RED early drops plus Gilbert–Elliott
// wire loss on a shared bottleneck carrying TCP, GCC and RFT flows — then
// Resets each one and compares it field by field with a freshly
// constructed twin. A field that Reset forgets to rewind shows up as a
// path into the component's state.
func TestResetLeavesNothingBehind(t *testing.T) {
	t.Parallel()
	red := &topo.REDSpec{MinTh: 3, MaxTh: 12, MaxP: 0.2, PacketsPerSecond: 500}
	spec := topo.Spec{Name: "reset-clean"}
	for _, n := range []string{"R0", "R1", "s0", "s1", "s2", "r0", "r1", "r2"} {
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: n})
	}
	spec.Links = append(spec.Links, topo.LinkSpec{A: "R0", B: "R1", AB: topo.Dir{
		Rate: 4_000_000, Delay: 10 * sim.Millisecond,
		Queue: topo.QueueSpec{Limit: 20, RED: red},
		Loss:  &topo.LossSpec{PGB: 0.01, PBG: 0.3, KBad: 0.5},
	}})
	for i := 0; i < 3; i++ {
		s, r := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		access := topo.Dir{Rate: 100_000_000, Delay: sim.Duration(i+1) * sim.Millisecond}
		spec.Links = append(spec.Links,
			topo.LinkSpec{A: s, B: "R0", AB: access},
			topo.LinkSpec{A: "R1", B: r, AB: access})
		spec.Flows = append(spec.Flows, topo.FlowSpec{From: s, To: r})
	}

	sched := sim.NewScheduler()
	net, err := topo.Build(sched, spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool := netsim.NewPacketPool()
	net.AttachPool(pool)
	port := net.Port("R0", "R1")
	drops := 0
	port.OnDrop = func(*netsim.Packet, sim.Time) { drops++ }

	tcpCfg := tcp.Config{Pool: pool, ECN: true}
	gccCfg := ratectl.GCCConfig{Pool: pool, InitialRate: 250_000, Seed: 3}
	rftCfg := rft.Config{Pool: pool, Chunks: 300, InitialRate: 250_000, Seed: 5}
	tf := tcp.NewPairFlow(sched, net.FlowSender(0), net.FlowReceiver(0), 1, tcpCfg)
	gf := ratectl.NewGCCFlow(sched, net.FlowSender(1), net.FlowReceiver(1), 2, gccCfg)
	rf := rft.NewFlow(sched, net.FlowSender(2), net.FlowReceiver(2), 3, rftCfg)
	rf.Sender.OnComplete = func(sim.Time) { rf.Restart() }
	tf.Sender.Start()
	gf.StartAt(sched, 0)
	rf.StartAt(sched, 0)
	sched.RunUntil(sim.Time(8 * sim.Second))
	if drops == 0 || port.LinkDropped == 0 {
		t.Fatalf("world was not lossy: %d queue drops, %d wire drops", drops, port.LinkDropped)
	}
	if rf.Sender.Epoch() == 0 {
		t.Fatal("no RFT transfer completed; the restart path went unexercised")
	}

	// Rewind everything the way a cached world does, then build twins.
	sched.Reset()
	port.Reset()
	redCfg := netsim.REDConfig{Limit: 20, MinTh: red.MinTh, MaxTh: red.MaxTh, MaxP: red.MaxP, PacketsPerSecond: red.PacketsPerSecond}
	const redSeed = 11
	port.Queue.(*netsim.RED).Reset(redCfg, redSeed)
	tf.ResetPair(net.FlowSender(0), net.FlowReceiver(0), 1, tcpCfg)
	gf.ResetPair(net.FlowSender(1), net.FlowReceiver(1), 2, gccCfg)
	rf.ResetPair(net.FlowSender(2), net.FlowReceiver(2), 3, rftCfg)

	freshPort := netsim.NewPort(sched, netsim.NewRED(redCfg, sim.NewRand(redSeed)),
		netsim.NewLink(port.Link.Rate, port.Link.Delay, port.Link.Dst))
	freshPort.Pool = pool
	freshTCP := tcp.NewPairFlow(sched, net.FlowSender(0), net.FlowReceiver(0), 1, tcpCfg)
	freshGCC := ratectl.NewGCCFlow(sched, net.FlowSender(1), net.FlowReceiver(1), 2, gccCfg)
	freshRFT := rft.NewFlow(sched, net.FlowSender(2), net.FlowReceiver(2), 3, rftCfg)

	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"netsim.RED", port.Queue, freshPort.Queue},
		{"netsim.Port", port, freshPort},
		{"tcp.Sender", tf.Sender, freshTCP.Sender},
		{"tcp.Receiver", tf.Receiver, freshTCP.Receiver},
		{"ratectl.GCCSender", gf.Sender, freshGCC.Sender},
		{"ratectl.GCCReceiver", gf.Receiver, freshGCC.Receiver},
		{"rft.Sender", rf.Sender, freshRFT.Sender},
		{"rft.Receiver", rf.Receiver, freshRFT.Receiver},
	} {
		if d := stateDiff(c.name, reflect.ValueOf(c.got), reflect.ValueOf(c.want)); d != "" {
			t.Errorf("reset %s differs from a fresh one at %s", c.name, d)
		}
	}
}
