package topo

import (
	"fmt"

	"repro/internal/lossmodel"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// edge identifies one directed link by node names.
type edge struct{ from, to string }

// PortInfo pairs a directed port with the node names it connects, for
// iteration over a Network's links (e.g. to observe drops everywhere).
type PortInfo struct {
	From, To string
	Port     *netsim.Port
}

// Network is a built topology: the netsim nodes and ports of a Spec wired
// onto one scheduler, with static shortest-path routes installed and each
// flow's base RTT precomputed. A Network is confined to the goroutine that
// owns its scheduler, like every other simulated component.
//
// Every Network is an instance of a compiled Program (Build is
// Compile+Instantiate); the addr and next maps are the program's, shared
// read-only across instances. Reset rewinds the instance for reuse.
type Network struct {
	// Sched is the scheduler every element of this world runs on.
	Sched *sim.Scheduler

	spec  Spec
	prog  *Program
	nodes map[string]*netsim.Node
	addr  map[string]int // owned by prog; read-only here
	ports map[edge]*netsim.Port
	dirs  map[edge]Dir
	mods  map[edge]*netsim.LinkModulator     // directions with Dynamics, started
	ges   map[edge]*lossmodel.GilbertElliott // directions with Loss
	edges []edge                             // directed-port creation order
	next  map[edge]string                    // owned by prog; read-only here
	rtts  []sim.Duration                     // per-flow base RTT
}

// Build wires spec onto sched. RED queues declared in the spec draw their
// random streams from seed (via sim.SubSeed keyed by link position), so a
// built world is a pure function of (spec, seed). It returns an error —
// not a panic — on an inconsistent spec, a disconnected flow pair, or an
// unroutable topology, naming the offending element.
//
// Build is Compile followed by Instantiate. Callers that stamp out or
// rewind many worlds of the same shape should hold the *Program (or go
// through NetworkIn, which caches one per arena) to skip the compile.
func Build(sched *sim.Scheduler, spec Spec, seed int64) (*Network, error) {
	if sched == nil {
		return nil, fmt.Errorf("topo: Build requires a scheduler")
	}
	p, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	return p.Instantiate(sched, seed)
}

func flowName(f FlowSpec) string {
	if f.Label != "" {
		return f.Label
	}
	return f.From + "→" + f.To
}

// buildQueue allocates the queue a QueueSpec selects. Only its type and
// store capacity are fixed here: Network.configure sets the limit and RED
// tunables and seeds RED's random stream.
func buildQueue(q QueueSpec) netsim.Queue {
	switch {
	case q.Custom != nil:
		return q.Custom
	case q.RED != nil:
		return netsim.NewRED(redConfig(q.RED, q.limit()), sim.NewRand(0))
	}
	return netsim.NewDropTail(q.limit())
}

// limit resolves the queue's capacity, defaulting a zero Limit.
func (q QueueSpec) limit() int {
	if q.Limit <= 0 {
		return DefaultQueueLimit
	}
	return q.Limit
}

// redConfig translates a REDSpec plus resolved limit into netsim's config.
func redConfig(r *REDSpec, limit int) netsim.REDConfig {
	return netsim.REDConfig{
		Limit:            limit,
		MinTh:            r.MinTh,
		MaxTh:            r.MaxTh,
		MaxP:             r.MaxP,
		Wq:               r.Wq,
		ECN:              r.ECN,
		Gentle:           r.Gentle,
		PersistMark:      r.PersistMark,
		PacketsPerSecond: r.PacketsPerSecond,
	}
}

// pathDelay sums the one-way propagation delays along the installed route
// from one node to another.
func (n *Network) pathDelay(from, to string) (sim.Duration, error) {
	var total sim.Duration
	cur := from
	for cur != to {
		hop, ok := n.next[edge{cur, to}]
		if !ok {
			return 0, fmt.Errorf("no route from %q to %q", from, to)
		}
		total += n.dirs[edge{cur, hop}].Delay
		cur = hop
	}
	return total, nil
}

// Node returns the built node by name, or panics on an unknown name (a
// wiring bug in the caller, like netsim's no-route panic).
func (n *Network) Node(name string) *netsim.Node {
	nd, ok := n.nodes[name]
	if !ok {
		panic(fmt.Sprintf("topo: unknown node %q", name))
	}
	return nd
}

// Addr returns the address assigned to the named node.
func (n *Network) Addr(name string) int {
	a, ok := n.addr[name]
	if !ok {
		panic(fmt.Sprintf("topo: unknown node %q", name))
	}
	return a
}

// Port returns the directed port from one named node to an adjacent one.
func (n *Network) Port(from, to string) *netsim.Port {
	p, ok := n.ports[edge{from, to}]
	if !ok {
		panic(fmt.Sprintf("topo: no link %q→%q", from, to))
	}
	return p
}

// Modulator returns the started link modulator of a directed link whose
// Dir declared Dynamics, or nil when the direction is static. Panics on an
// unknown link, like Port.
func (n *Network) Modulator(from, to string) *netsim.LinkModulator {
	if _, ok := n.ports[edge{from, to}]; !ok {
		panic(fmt.Sprintf("topo: no link %q→%q", from, to))
	}
	return n.mods[edge{from, to}]
}

// AttachPool installs the world's packet freelist on every port, so each
// hop recycles the packets it drops. The pool must belong to the same
// world as the network (per-world pools are what keep recycling
// deterministic and race-free; see netsim.PacketPool).
func (n *Network) AttachPool(pool *netsim.PacketPool) {
	for _, e := range n.edges {
		n.ports[e].Pool = pool
	}
}

// Ports lists every directed port with its endpoints, in link declaration
// order (A→B before B→A) — the deterministic iteration scenarios use to
// attach drop observers to every hop.
func (n *Network) Ports() []PortInfo {
	out := make([]PortInfo, len(n.edges))
	for i, e := range n.edges {
		out[i] = PortInfo{From: e.from, To: e.to, Port: n.ports[e]}
	}
	return out
}

// Forwarded sums Port.Forwarded over every directed port: how many packet
// transmissions the network performed. Together with the scheduler's Fired
// counter it yields the events-per-forwarded-packet ratio that measures
// how much scheduler traffic the link-service batching saves (see
// ARCHITECTURE.md, "Link service batching").
func (n *Network) Forwarded() uint64 {
	var sum uint64
	for _, e := range n.edges {
		sum += n.ports[e].Forwarded()
	}
	return sum
}

// NumFlows reports how many endpoint pairs the spec declared.
func (n *Network) NumFlows() int { return len(n.spec.Flows) }

// Flow returns the i'th flow declaration.
func (n *Network) Flow(i int) FlowSpec { return n.spec.Flows[i] }

// FlowSender returns the sending-side node of flow i.
func (n *Network) FlowSender(i int) *netsim.Node { return n.nodes[n.spec.Flows[i].From] }

// FlowReceiver returns the receiving-side node of flow i.
func (n *Network) FlowReceiver(i int) *netsim.Node { return n.nodes[n.spec.Flows[i].To] }

// FlowRTT reports the base (unloaded, zero-size-packet) round-trip time of
// flow i: the sum of propagation delays along the routed path there and
// back, excluding queueing and serialization — the same convention as the
// dumbbell's PairRTT.
func (n *Network) FlowRTT(i int) sim.Duration { return n.rtts[i] }

// MeanFlowRTT is the average base RTT over all declared flows, the
// normalization constant scenario analyses hand to analysis.Analyze.
func (n *Network) MeanFlowRTT() sim.Duration {
	if len(n.rtts) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, r := range n.rtts {
		sum += r
	}
	return sum / sim.Duration(len(n.rtts))
}
