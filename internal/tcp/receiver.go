package tcp

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Receiver is the TCP sink: it acknowledges every data packet cumulatively
// (no delayed ACKs, matching the ns-2 configuration the paper's
// experiments use), tracks out-of-order arrivals so the cumulative ACK
// jumps forward when holes fill, and echoes ECN congestion-experienced
// marks back to the sender.
type Receiver struct {
	sched *sim.Scheduler
	out   netsim.Handler
	flow  int
	src   int // this receiver's node address
	dst   int // the sender's node address
	ack   int // ack packet size in bytes

	cumAck int64          // next expected sequence
	ooo    map[int64]bool // received beyond the cumulative point

	ceSeen bool // latched CE until echoed (simplified ECE)

	pktID uint64
	pool  *netsim.PacketPool

	// Statistics.
	Received   uint64 // data packets that arrived (including duplicates)
	Duplicates uint64
	AcksOut    uint64
	BytesIn    uint64

	// OnData observes every arriving data packet (throughput accounting).
	OnData func(p *netsim.Packet, at sim.Time)
}

// NewReceiver builds a receiver for one flow. out is where ACKs are
// injected (normally the receiver-side node); src is this node's address,
// dst the sender's.
func NewReceiver(sched *sim.Scheduler, out netsim.Handler, flow, src, dst, ackSize int) *Receiver {
	if sched == nil || out == nil {
		panic("tcp: NewReceiver requires scheduler and output")
	}
	r := &Receiver{sched: sched, ooo: make(map[int64]bool)}
	r.Reset(out, flow, src, dst, ackSize)
	return r
}

// Reset rewinds the receiver to the state NewReceiver(sched, out, flow,
// src, dst, ackSize) would produce, keeping the scheduler and the
// out-of-order map's buckets (cleared, not reallocated — reusing a warm
// receiver makes the per-packet hole tracking allocation-free after the
// first run).
func (r *Receiver) Reset(out netsim.Handler, flow, src, dst, ackSize int) {
	if out == nil {
		panic("tcp: Receiver.Reset requires an output")
	}
	if ackSize <= 0 {
		ackSize = 40
	}
	clear(r.ooo)
	*r = Receiver{
		sched: r.sched,
		ooo:   r.ooo,

		out:  out,
		flow: flow,
		src:  src,
		dst:  dst,
		ack:  ackSize,
	}
}

// CumAck reports the next expected sequence number.
func (r *Receiver) CumAck() int64 { return r.cumAck }

// SetPool attaches the world's packet freelist: consumed data packets are
// recycled and outgoing ACKs drawn from it. NewPairFlow wires this
// automatically from Config.Pool.
func (r *Receiver) SetPool(pool *netsim.PacketPool) { r.pool = pool }

// Handle implements netsim.Handler for arriving data packets. The receiver
// is the data packet's final consumer: once the ACK is generated the
// packet is recycled, so OnData observers must copy rather than retain.
func (r *Receiver) Handle(p *netsim.Packet) {
	if p.Kind != netsim.Data || p.Flow != r.flow {
		return
	}
	r.Received++
	r.BytesIn += uint64(p.Size)
	if r.OnData != nil {
		r.OnData(p, r.sched.Now())
	}
	if p.CE {
		r.ceSeen = true
	}
	switch {
	case p.Seq == r.cumAck:
		r.cumAck++
		for r.ooo[r.cumAck] {
			delete(r.ooo, r.cumAck)
			r.cumAck++
		}
	case p.Seq > r.cumAck:
		if r.ooo[p.Seq] {
			r.Duplicates++
		}
		r.ooo[p.Seq] = true
	default:
		r.Duplicates++
	}
	r.sendAck(p)
	r.pool.Put(p)
}

func (r *Receiver) sendAck(data *netsim.Packet) {
	r.pktID++
	ack := r.pool.Get()
	ack.ID = r.pktID
	ack.Flow = r.flow
	ack.Kind = netsim.Ack
	ack.Size = r.ack
	ack.Seq = data.Seq
	ack.Ack = r.cumAck
	ack.Src = r.src
	ack.Dst = r.dst
	ack.SendTime = r.sched.Now()
	ack.CE = r.ceSeen // echo congestion experienced
	if r.ceSeen && r.cumAck > data.Seq {
		// Mark echoed on an advancing ACK; clear the latch. (Real TCP
		// clears on CWR; one echo per mark is enough for our sender, which
		// rate-limits reductions to once per RTT.)
		r.ceSeen = false
	}
	r.AcksOut++
	r.out.Handle(ack)
}
