package topo

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/lossmodel"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// progDir is one directed link of a compiled program: its endpoints, the
// compile-time Dir (instances may retune the parameters via Reset) and the
// per-direction seed tag that keys every random stream the direction owns.
type progDir struct {
	e   edge
	dir Dir
	tag int64 // dirSeed = sim.SubSeed(buildSeed, tag)
}

// progRoute is one precomputed routing-table entry: install on node src a
// route for destination address dst leaving on the directed link out.
type progRoute struct {
	src string
	dst int
	out edge
}

// Program is a compiled topology: everything about a Spec that does not
// depend on the build seed or on runtime parameters — validated structure,
// assigned addresses, directed-port creation order with per-direction seed
// tags, and the full shortest-path routing solution as a replayable install
// list. A Program is immutable after Compile and may be shared by any
// number of instantiated Networks (the addr and next maps are handed to
// instances read-only).
//
// The split exists for replication sweeps: Compile once per structural
// shape, Instantiate to stamp out a world, and Network.Reset to rewind the
// same world for the next replication without re-running validation, BFS
// or the parent-chain walks — the dominant build cost for the paper's
// multi-node scenarios.
type Program struct {
	spec   Spec
	addr   map[string]int  // immutable; shared with every instance
	dirs   []progDir       // directed-port creation order (A→B then B→A per link)
	next   map[edge]string // immutable next-hop solution; shared with instances
	routes []progRoute     // AddRoute replay list, BFS discovery order
}

// Compile validates spec and precomputes its seed-independent layout:
// addresses (explicit pins first, then lowest-unused in declaration order),
// the directed-port order with per-direction seed tags, and shortest-path
// routes with ties broken by link declaration order — the same
// deterministic solution Build has always installed. Flow reachability is
// checked at Instantiate time (with the exact error Build reports), since
// it falls out of the RTT computation.
func Compile(spec Spec) (*Program, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	p := &Program{
		spec: spec,
		addr: make(map[string]int, len(spec.Nodes)),
		dirs: make([]progDir, 0, 2*len(spec.Links)),
	}

	used := make(map[int]bool, len(spec.Nodes))
	for _, ns := range spec.Nodes {
		if ns.Addr != 0 {
			p.addr[ns.Name] = ns.Addr
			used[ns.Addr] = true
		}
	}
	nextAddr := 1
	for _, ns := range spec.Nodes {
		if ns.Addr == 0 {
			for used[nextAddr] {
				nextAddr++
			}
			p.addr[ns.Name] = nextAddr
			used[nextAddr] = true
		}
	}

	for i, l := range spec.Links {
		p.dirs = append(p.dirs,
			progDir{e: edge{l.A, l.B}, dir: l.AB, tag: int64(2 * i)},
			progDir{e: edge{l.B, l.A}, dir: l.mirrored(), tag: int64(2*i + 1)},
		)
	}

	p.computeRoutes()
	return p, nil
}

// computeRoutes solves static shortest-path routing for the program:
// breadth-first per source on dense node indices, ties broken by link
// declaration order. Instead of installing into live nodes it records the
// next-hop map plus an ordered AddRoute replay list, so every Instantiate
// re-installs the identical table with map lookups only.
func (p *Program) computeRoutes() {
	nn := len(p.spec.Nodes)
	names := make([]string, nn)
	index := make(map[string]int, nn)
	for i, ns := range p.spec.Nodes {
		names[i] = ns.Name
		index[ns.Name] = i
	}

	adj := make([][]int, nn)
	for _, l := range p.spec.Links {
		a, b := index[l.A], index[l.B]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}

	p.next = make(map[edge]string, nn*(nn-1))
	p.routes = make([]progRoute, 0, nn*(nn-1))
	parent := make([]int, nn)
	queue := make([]int, 0, nn)
	for src := 0; src < nn; src++ {
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = src
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			for _, nb := range adj[queue[head]] {
				if parent[nb] < 0 {
					parent[nb] = queue[head]
					queue = append(queue, nb)
				}
			}
		}
		srcName := names[src]
		for _, dst := range queue[1:] {
			hop := dst
			for parent[hop] != src {
				hop = parent[hop]
			}
			p.next[edge{srcName, names[dst]}] = names[hop]
			p.routes = append(p.routes, progRoute{
				src: srcName,
				dst: p.addr[names[dst]],
				out: edge{srcName, names[hop]},
			})
		}
	}
}

// Spec returns the compiled spec.
func (p *Program) Spec() Spec { return p.spec }

// Instantiate stamps the program out onto a scheduler: fresh nodes, ports,
// queues and links with the precomputed routing solution replayed instead
// of recomputed, then configured exactly as Reset configures a reused
// world — so an instance is seeded exactly as Build(sched, p.Spec(), seed)
// would seed it. The error cases are Build's (nil scheduler, unroutable
// flow).
func (p *Program) Instantiate(sched *sim.Scheduler, seed int64) (*Network, error) {
	if sched == nil {
		return nil, fmt.Errorf("topo: Instantiate requires a scheduler")
	}
	n := &Network{
		Sched: sched,
		prog:  p,
		nodes: make(map[string]*netsim.Node, len(p.spec.Nodes)),
		addr:  p.addr,
		ports: make(map[edge]*netsim.Port, len(p.dirs)),
		dirs:  make(map[edge]Dir, len(p.dirs)),
		edges: make([]edge, 0, len(p.dirs)),
		next:  p.next,
	}
	reserve := len(p.spec.Nodes) - 1
	for _, ns := range p.spec.Nodes {
		nd := netsim.NewNode(sched, p.addr[ns.Name])
		nd.ReserveRoutes(reserve)
		n.nodes[ns.Name] = nd
	}
	for _, pd := range p.dirs {
		link := netsim.NewLink(pd.dir.Rate, pd.dir.Delay, n.nodes[pd.e.to])
		n.ports[pd.e] = netsim.NewPort(sched, buildQueue(pd.dir.Queue), link)
		n.edges = append(n.edges, pd.e)
	}
	for _, r := range p.routes {
		n.nodes[r.src].AddRoute(r.dst, n.ports[r.out])
	}
	if err := n.configure(p.spec, seed); err != nil {
		return nil, err
	}
	return n, nil
}

// computeRTTs fills the per-flow base RTTs from the current direction
// delays, doubling as the flow reachability check. The last step of
// configure; the slice is reused across resets.
func (n *Network) computeRTTs() error {
	flows := n.spec.Flows
	if cap(n.rtts) >= len(flows) {
		n.rtts = n.rtts[:len(flows)]
	} else {
		n.rtts = make([]sim.Duration, len(flows))
	}
	for i, f := range flows {
		fwd, err := n.pathDelay(f.From, f.To)
		if err != nil {
			return fmt.Errorf("topo: %s flow %d (%s): %w", n.spec.Name, i, flowName(f), err)
		}
		rev, err := n.pathDelay(f.To, f.From)
		if err != nil {
			return fmt.Errorf("topo: %s flow %d (%s): %w", n.spec.Name, i, flowName(f), err)
		}
		n.rtts[i] = fwd + rev
	}
	return nil
}

// Reset rewinds the network to the state Build(sched, spec, seed) would
// produce on a freshly reset scheduler, without reallocating nodes, ports
// or queues and without recomputing routes. The caller must reset the
// owning scheduler first (pending events are cancelled wholesale there;
// packets riding scheduler events as delivery arguments are abandoned to
// the garbage collector, while queued packets recycle into the ports'
// pool).
//
// spec must match the compiled program structurally — same nodes (names
// and address pins), same links (endpoints, order and queue discipline
// kind per direction, Custom queues excluded entirely) and same flow
// endpoint pairs. Everything parametric may differ between resets: rates,
// delays, queue limits, RED tunables, loss parameters and presence,
// dynamics, flow labels. That asymmetry is what replication sweeps need —
// each replication perturbs delays or buffers but never the shape.
func (n *Network) Reset(spec Spec, seed int64) error {
	// Structure first (allocation-free against the compiled shape), then
	// only the parametric half of validation — the structural half is
	// implied by matching the already-validated compiled spec.
	if what, i := n.prog.structuralMatch(spec); what != "" {
		return fmt.Errorf("topo: reset: %s %d does not match compiled program %q", what, i, n.prog.spec.Name)
	}
	if err := spec.validateParams(); err != nil {
		return err
	}
	return n.configure(spec, seed)
}

// configure brings every allocated element to the state spec and seed
// describe: the one initialization path shared by Instantiate and Reset.
// Directions go in creation order with one seed derivation: the queue
// reseeds on the direction seed, the loss chain on SubSeed(dirSeed, 1),
// and the modulator — whose Start is the only event scheduled while a
// world is configured — is recreated on SubSeed(dirSeed, 2) after the
// link's rate and delay are set, so a reset world's event sequence
// numbers match a fresh build's exactly. Custom queues are the caller's
// and are left as they are.
func (n *Network) configure(spec Spec, seed int64) error {
	n.spec = spec
	di := 0
	for _, l := range spec.Links {
		for _, d := range [2]Dir{l.AB, l.mirrored()} {
			pd := n.prog.dirs[di]
			di++
			e, dirSeed := pd.e, sim.SubSeed(seed, pd.tag)
			port := n.ports[e]
			port.Reset()
			switch {
			case d.Queue.Custom != nil:
			case d.Queue.RED != nil:
				port.Queue.(*netsim.RED).Reset(redConfig(d.Queue.RED, d.Queue.limit()), dirSeed)
			default:
				port.Queue.(*netsim.DropTail).Reset(d.Queue.limit())
			}
			port.Link.Rate = d.Rate
			port.Link.Delay = d.Delay
			if ls := d.Loss; ls != nil {
				geSeed := sim.SubSeed(dirSeed, 1)
				ge := n.ges[e]
				if ge != nil {
					ge.Reset(ls.params(), geSeed)
				} else {
					ge = lossmodel.NewGilbertElliott(ls.params(), sim.NewRand(geSeed))
					if n.ges == nil {
						n.ges = make(map[edge]*lossmodel.GilbertElliott)
					}
					n.ges[e] = ge
				}
				port.LinkLoss = ge.Lost
			} else {
				delete(n.ges, e)
			}
			if dyn := d.Dynamics; dyn != nil {
				if n.mods == nil {
					n.mods = make(map[edge]*netsim.LinkModulator)
				}
				n.mods[e] = buildDynamics(n.Sched, port.Link, dyn, sim.SubSeed(dirSeed, 2))
			} else {
				delete(n.mods, e)
			}
			n.dirs[e] = d
		}
	}
	for _, ns := range spec.Nodes {
		n.nodes[ns.Name].Reset()
	}
	return n.computeRTTs()
}

// structuralMatch locates the first difference between spec and the
// program's structure: the parts Reset cannot change because they are
// baked into allocated objects (node identities and addresses, link
// endpoints and order, queue discipline types) or into the precomputed
// routing solution (node set, adjacency, flow endpoints). what names the
// differing part ("" when the structures match) and i is its index, or
// the spec's count for a count mismatch. It allocates nothing, so
// NetworkIn can scan an arena's cached worlds with it.
func (p *Program) structuralMatch(spec Spec) (what string, i int) {
	old := p.spec
	if len(spec.Nodes) != len(old.Nodes) {
		return "node count", len(spec.Nodes)
	}
	for i, ns := range spec.Nodes {
		if ns != old.Nodes[i] {
			return "node", i
		}
	}
	if len(spec.Links) != len(old.Links) {
		return "link count", len(spec.Links)
	}
	for i, l := range spec.Links {
		ol := old.Links[i]
		if l.A != ol.A || l.B != ol.B {
			return "link", i
		}
		nd := [2]Dir{l.AB, l.mirrored()}
		od := [2]Dir{ol.AB, ol.mirrored()}
		for j := range nd {
			if nd[j].Queue.Custom != nil || od[j].Queue.Custom != nil {
				return "Custom queue (never rewindable) on link", i
			}
			if (nd[j].Queue.RED != nil) != (od[j].Queue.RED != nil) {
				return "queue discipline of link", i
			}
		}
	}
	if len(spec.Flows) != len(old.Flows) {
		return "flow count", len(spec.Flows)
	}
	for i, f := range spec.Flows {
		if of := old.Flows[i]; f.From != of.From || f.To != of.To {
			return "flow", i
		}
	}
	return "", 0
}

// worldsKey is the arena scratch slot holding NetworkIn's cached worlds.
const worldsKey = "topo/worlds"

// NetworkIn returns a world for spec on the arena's terms: with a nil
// arena it is exactly Build; with an arena it keeps one compiled-and-
// instantiated Network per spec name and structural shape in a list on
// the arena, and Resets the matching one for each subsequent run, so a
// replication sweep pays validation, BFS and allocation once per worker
// instead of once per replication. sched must be the arena's (reset)
// scheduler. Worlds whose spec uses Custom queues are never cached — they
// fall back to Build every time, since an opaque queue cannot be rewound.
func NetworkIn(a *exp.Arena, sched *sim.Scheduler, spec Spec, seed int64) (*Network, error) {
	if a == nil {
		return Build(sched, spec, seed)
	}
	worlds, _ := a.Scratch(worldsKey).(*[]*Network)
	if worlds == nil {
		worlds = new([]*Network)
		a.SetScratch(worldsKey, worlds)
	}
	slot := len(*worlds)
	for i, net := range *worlds {
		if net.prog.spec.Name != spec.Name {
			continue
		}
		if what, _ := net.prog.structuralMatch(spec); what != "" {
			continue
		}
		if net.Sched == sched && net.Reset(spec, seed) == nil {
			return net, nil
		}
		slot = i
		break
	}
	net, err := Build(sched, spec, seed)
	if err != nil {
		return nil, err
	}
	if what, _ := net.prog.structuralMatch(spec); what != "" {
		return net, nil // a Custom queue: the world cannot be rewound
	}
	if slot < len(*worlds) {
		(*worlds)[slot] = net
	} else {
		*worlds = append(*worlds, net)
	}
	return net, nil
}
