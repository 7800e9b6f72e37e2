package netsim

// Queue is the buffering discipline of an output port. Enqueue either
// accepts the packet or reports a drop; it may also mark ECN-capable
// packets instead of dropping (RED). Queues are packet-counting by default,
// matching the ns-2 DropTail configuration the paper uses.
type Queue interface {
	// Enqueue offers a packet. It returns false when the packet was dropped.
	Enqueue(p *Packet) bool
	// Dequeue removes and returns the head packet, or nil when empty.
	Dequeue() *Packet
	// Len reports queued packets.
	Len() int
	// Bytes reports queued bytes.
	Bytes() int
}

// fifo is the common packet store shared by the queue disciplines.
type fifo struct {
	pkts  []*Packet
	head  int
	bytes int
}

// fifoSeedCap is the initial packet-slice capacity a bounded queue
// preallocates: one allocation up front instead of the first several
// append doublings, sized so the hundreds of mostly-shallow access-link
// queues a sweep rebuilds per replication stay cheap while deep
// bottleneck queues still grow on demand.
const fifoSeedCap = 64

// seed preallocates the store for a queue bounded by limit.
func (q *fifo) seed(limit int) {
	c := limit
	if c > fifoSeedCap {
		c = fifoSeedCap
	}
	if c > 0 {
		q.pkts = make([]*Packet, 0, c)
	}
}

func (q *fifo) push(p *Packet) {
	q.pkts = append(q.pkts, p)
	q.bytes += p.Size
}

func (q *fifo) pop() *Packet {
	if q.head >= len(q.pkts) {
		return nil
	}
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	q.bytes -= p.Size
	// Compact once the dead prefix dominates, keeping amortized O(1).
	if q.head > 64 && q.head*2 >= len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		q.pkts = q.pkts[:n]
		q.head = 0
	}
	return p
}

func (q *fifo) len() int { return len(q.pkts) - q.head }

// reset empties the store in place, keeping the slice's capacity. The
// caller must already have drained (and recycled) the queued packets —
// typically via Port.Reset — so only dead slots remain to truncate.
func (q *fifo) reset() {
	clear(q.pkts[q.head:])
	q.pkts = q.pkts[:0]
	q.head = 0
	q.bytes = 0
}

// DropTail is a FIFO queue with a hard packet limit: the discipline the
// paper identifies as the major source of sub-RTT loss burstiness. When the
// buffer is full every arriving packet is dropped until a departure makes
// room, which is exactly what produces the cluster of drops the paper
// measures.
type DropTail struct {
	fifo
	Limit int // capacity in packets
}

// NewDropTail returns a DropTail queue holding at most limit packets.
// A non-positive limit panics: a bufferless port cannot forward.
func NewDropTail(limit int) *DropTail {
	q := &DropTail{}
	q.seed(limit)
	q.Reset(limit)
	return q
}

// Reset rewinds the queue to its just-built (empty) state and retunes the
// capacity, so a reused world can change buffer sizes between runs without
// rebuilding. The caller drains queued packets first (Port.Reset).
func (q *DropTail) Reset(limit int) {
	if limit <= 0 {
		panic("netsim: DropTail limit must be positive")
	}
	q.fifo.reset()
	q.Limit = limit
}

// Enqueue implements Queue.
func (q *DropTail) Enqueue(p *Packet) bool {
	if q.len() >= q.Limit {
		return false
	}
	q.push(p)
	return true
}

// Dequeue implements Queue.
func (q *DropTail) Dequeue() *Packet { return q.pop() }

// Len implements Queue.
func (q *DropTail) Len() int { return q.fifo.len() }

// Bytes implements Queue.
func (q *DropTail) Bytes() int { return q.fifo.bytes }
