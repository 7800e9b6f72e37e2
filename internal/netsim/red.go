package netsim

import (
	"math"
	"math/rand"
)

// RED implements Random Early Detection (Floyd & Jacobson 1993), the
// proposal the paper discusses as the way to de-burst the loss process. The
// average queue length is an EWMA updated on every arrival; between minTh
// and maxTh arriving packets are dropped (or ECN-marked) with a probability
// that grows linearly to MaxP and is spread out by the count-based
// uniformization from the original paper.
type RED struct {
	fifo
	Limit int     // hard capacity in packets
	MinTh float64 // lower average-queue threshold, packets
	MaxTh float64 // upper average-queue threshold, packets
	MaxP  float64 // drop probability at MaxTh
	Wq    float64 // EWMA weight for the average queue size
	ECN   bool    // mark ECN-capable packets instead of dropping

	// Gentle enables the "gentle RED" variant: between maxTh and 2·maxTh
	// the drop probability rises linearly from MaxP to 1 instead of jumping
	// to 1, which reduces parameter sensitivity.
	Gentle bool

	// PersistMark implements the persistent-ECN extension the paper
	// proposes (its reference [22]): once a mark or drop decision fires,
	// every ECN-capable packet is marked for this long (typically one
	// RTT), so that *every* flow sharing the bottleneck sees the
	// congestion signal, not just the flows whose packets happened to be
	// in the drop burst. Requires ECN and EnqueueAt (the Port uses
	// EnqueueAt automatically).
	PersistMark float64 // seconds; 0 disables

	markUntil float64 // simulated seconds until which all ECT packets are marked

	rng *rand.Rand

	avg       float64 // EWMA of queue length in packets
	count     int     // packets since the last drop/mark while avg in [minTh,maxTh)
	idleStart float64 // simulated seconds when the queue went idle; <0 while busy
	ptc       float64 // packets-per-second used to age avg across idle periods

	// Marked counts ECN marks applied in lieu of drops.
	Marked uint64
}

// REDConfig carries the tunables for NewRED. Zero fields get the defaults
// recommended by Floyd: wq=0.002, maxP=0.1, minTh=5, maxTh=3·minTh.
type REDConfig struct {
	Limit  int
	MinTh  float64
	MaxTh  float64
	MaxP   float64
	Wq     float64
	ECN    bool
	Gentle bool
	// PacketsPerSecond is the drain rate of the attached link in packets,
	// used to decay the average queue size across idle periods. Optional.
	PacketsPerSecond float64
	// PersistMark, in seconds, enables the paper's persistent-ECN
	// extension: after any mark/drop decision, all ECN-capable arrivals
	// are marked for this long.
	PersistMark float64
}

// NewRED builds a RED queue. rng must be non-nil; RED is a randomized
// discipline and the experiments need seeded reproducibility.
func NewRED(cfg REDConfig, rng *rand.Rand) *RED {
	if rng == nil {
		panic("netsim: RED requires a seeded *rand.Rand")
	}
	q := &RED{rng: rng}
	q.seed(cfg.Limit)
	q.configure(cfg)
	return q
}

// Reset rewinds the queue to the state NewRED(cfg, sim.NewRand(seed))
// would produce, reusing the existing store and random generator, and
// reseeds the random stream — so a reset RED queue is bit-identical to a
// freshly built one. The caller drains queued packets first (Port.Reset).
func (q *RED) Reset(cfg REDConfig, seed int64) {
	q.configure(cfg)
	q.rng.Seed(seed)
}

// configure empties the store and rewinds every other field to its
// just-built value under cfg, filling Floyd's defaults for zero tunables;
// only the store's capacity and the random generator persist.
func (q *RED) configure(cfg REDConfig) {
	if cfg.Limit <= 0 {
		panic("netsim: RED limit must be positive")
	}
	if cfg.Wq == 0 {
		cfg.Wq = 0.002
	}
	if cfg.MaxP == 0 {
		cfg.MaxP = 0.1
	}
	if cfg.MinTh == 0 {
		cfg.MinTh = 5
	}
	if cfg.MaxTh == 0 {
		cfg.MaxTh = 3 * cfg.MinTh
	}
	q.fifo.reset()
	*q = RED{
		fifo: q.fifo,
		rng:  q.rng,

		Limit:       cfg.Limit,
		MinTh:       cfg.MinTh,
		MaxTh:       cfg.MaxTh,
		MaxP:        cfg.MaxP,
		Wq:          cfg.Wq,
		ECN:         cfg.ECN,
		Gentle:      cfg.Gentle,
		PersistMark: cfg.PersistMark,
		ptc:         cfg.PacketsPerSecond,
		idleStart:   -1,
	}
}

func (q *RED) noteTime(nowSec float64) {
	if q.idleStart >= 0 && q.ptc > 0 {
		// Queue has been idle: decay avg as if (idle · ptc) empty slots went by.
		m := (nowSec - q.idleStart) * q.ptc
		if m > 0 {
			q.avg *= math.Pow(1-q.Wq, m)
		}
		q.idleStart = -1
	}
}

// EnqueueAt offers a packet at the given simulated time (seconds). The
// time ages the average across idle periods and drives persistent ECN
// marking.
func (q *RED) EnqueueAt(p *Packet, nowSec float64) bool {
	q.noteTime(nowSec)
	if q.PersistMark > 0 && p.ECT && nowSec < q.markUntil {
		p.CE = true
		q.Marked++
		q.avg = (1-q.Wq)*q.avg + q.Wq*float64(q.len())
		if q.len() >= q.Limit {
			return false
		}
		q.push(p)
		return true
	}
	accepted := q.Enqueue(p)
	if q.PersistMark > 0 && (!accepted || p.CE) {
		// A drop or mark decision just fired: open the persistent window.
		q.markUntil = nowSec + q.PersistMark
	}
	return accepted
}

// Enqueue implements Queue.
func (q *RED) Enqueue(p *Packet) bool {
	q.avg = (1-q.Wq)*q.avg + q.Wq*float64(q.len())

	if q.len() >= q.Limit {
		q.count = 0
		return false // forced tail drop
	}

	drop := false
	switch {
	case q.avg < q.MinTh:
		q.count = -1
	case q.avg < q.MaxTh:
		q.count++
		pb := q.MaxP * (q.avg - q.MinTh) / (q.MaxTh - q.MinTh)
		drop = q.uniformized(pb)
	case q.Gentle && q.avg < 2*q.MaxTh:
		q.count++
		pb := q.MaxP + (1-q.MaxP)*(q.avg-q.MaxTh)/q.MaxTh
		drop = q.uniformized(pb)
	default:
		q.count = 0
		drop = true
	}

	if drop {
		if q.ECN && p.ECT {
			p.CE = true
			q.Marked++
		} else {
			return false
		}
	}
	q.push(p)
	return true
}

// uniformized converts the instantaneous probability pb into the original
// RED paper's uniformized per-packet probability pa = pb / (1 - count·pb),
// which spaces drops roughly evenly.
func (q *RED) uniformized(pb float64) bool {
	if pb <= 0 {
		return false
	}
	den := 1 - float64(q.count)*pb
	pa := 1.0
	if den > 0 {
		pa = pb / den
	}
	if q.rng.Float64() < pa {
		q.count = 0
		return true
	}
	return false
}

// Dequeue implements Queue.
func (q *RED) Dequeue() *Packet { return q.pop() }

// NoteEmptyAt records the simulated time (seconds) at which the queue went
// idle, so the next arrival can age the average queue size across the idle
// period. The Port calls this when a dequeue empties the queue.
func (q *RED) NoteEmptyAt(nowSec float64) { q.idleStart = nowSec }

// Len implements Queue.
func (q *RED) Len() int { return q.fifo.len() }

// Bytes implements Queue.
func (q *RED) Bytes() int { return q.fifo.bytes }

// AvgQueue exposes the EWMA average queue length, for tests and ablations.
func (q *RED) AvgQueue() float64 { return q.avg }
