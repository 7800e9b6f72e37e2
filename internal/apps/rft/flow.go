package rft

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Flow bundles a reliable-file-transfer sender/receiver pair wired onto a
// topology's endpoint nodes, mirroring tcp.Flow and ratectl.GCCFlow.
type Flow struct {
	Sender   *Sender
	Receiver *Receiver
}

// NewFlow wires a transfer flow between two endpoint nodes. The supplied
// cfg's Flow/Src/Dst fields are filled in from the flow id and the nodes'
// addresses; other fields are respected.
func NewFlow(sched *sim.Scheduler, snd, rcv *netsim.Node, flowID int, cfg Config) *Flow {
	f := &Flow{Sender: NewSender(sched, snd, cfg), Receiver: NewReceiver(sched, rcv, cfg)}
	f.ResetPair(snd, rcv, flowID, cfg)
	return f
}

// ResetPair rewinds a flow built by NewFlow for another run on a reset
// world, re-binding onto the given nodes (a world reset strips transport
// bindings). The scheduler must have been reset alongside the world.
func (f *Flow) ResetPair(snd, rcv *netsim.Node, flowID int, cfg Config) {
	cfg.Flow = flowID
	cfg.Src = snd.Addr
	cfg.Dst = rcv.Addr
	f.Sender.Reset(cfg)
	f.Receiver.Reset(cfg)
	snd.Bind(flowID, f.Sender)
	rcv.Bind(flowID, f.Receiver)
}

// StartAt schedules the flow to begin at the given simulated time.
func (f *Flow) StartAt(sched *sim.Scheduler, at sim.Time) {
	if at <= sched.Now() {
		f.Sender.Start()
		return
	}
	sched.At(at, f.Sender.startFn)
}

// Restart begins the next transfer on the same wiring: both endpoints
// advance to the next epoch (so stale in-flight packets of the finished
// transfer are ignored), the ledger and AIMD state rewind, observers are
// preserved, and transmission starts immediately. Callers typically
// invoke it from Sender.OnComplete to run back-to-back transfers.
func (f *Flow) Restart() {
	f.Receiver.restart()
	f.Sender.restart()
}

// FCT reports the current transfer's flow completion time — first
// transmission to last chunk arrival at the receiver — or 0 if the
// transfer has not completed.
func (f *Flow) FCT() sim.Duration {
	if f.Receiver.CompletedAt == 0 {
		return 0
	}
	return f.Receiver.CompletedAt.Sub(f.Sender.StartedAt)
}
