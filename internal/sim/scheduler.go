package sim

import "fmt"

// event is the scheduler-owned state behind a Timer handle. Events are
// recycled through a per-scheduler freelist: the generation counter is
// bumped every time an event leaves the scheduled state (fire or cancel),
// which is what makes a stale Timer handle a detectable no-op instead of a
// use-after-free. The freelist is per world and needs no synchronization
// because a Scheduler is confined to one goroutine by contract.
//
// A scheduled event carries its own ordering key. t is the due time; armT
// is the virtual instant the event was armed at — s.now for the ordinary
// At/After family, or a caller-asserted instant for the AsOf variants.
// armT2 and armT3 extend the key two generations up the arming ancestry:
// the instant the event's parent (the event whose callback armed this one)
// was armed, and the parent's parent in turn. For truthfully armed events
// the chain is threaded automatically from the firing event's own keys, and
// because seq is strictly monotone over arming order, sorting simultaneous
// events by (armT, armT2, armT3, seq) is identical to sorting by seq alone —
// at every depth the ancestor keys can only agree with the seq order they
// summarize. The genealogy matters when a coalesced timer stands in for an
// event a reference execution would have armed elsewhere (see AtAsOf): two
// stand-ins can tie not just at the due time but at the replaced events'
// arming instants too — two same-geometry ports finishing serialization in
// the same nanosecond — and then the reference breaks the tie by the arming
// order of the parents, which the deeper keys carry and a plain
// (armT, seq) cannot. Ties through all three generations fall to seq, the
// one residual the stand-in cannot reproduce.
type event struct {
	t     Time
	armT  Time
	armT2 Time
	armT3 Time
	seq   uint64
	gen   uint64
	idx   int // position in the queue while scheduled
	fn    func()
	afn   func(any)
	arg   any
	next  *event // freelist link
}

// before reports whether x fires before y when both are due at the same
// instant: the genealogy keys, then the arming sequence.
func (x *event) before(y *event) bool {
	if x.armT != y.armT {
		return x.armT < y.armT
	}
	if x.armT2 != y.armT2 {
		return x.armT2 < y.armT2
	}
	if x.armT3 != y.armT3 {
		return x.armT3 < y.armT3
	}
	return x.seq < y.seq
}

// Timer is a cancelable handle to a scheduled callback. The zero value is
// inert: Pending reports false and Cancel is a no-op. A Timer stays valid
// after its event fires or is cancelled — it simply stops matching the
// recycled event's generation — so callers may keep handles around without
// lifecycle bookkeeping.
type Timer struct {
	e   *event
	gen uint64
}

// Pending reports whether the timer's callback is still queued.
func (tm Timer) Pending() bool { return tm.e != nil && tm.e.gen == tm.gen }

// Time reports when the callback will fire, or 0 when the timer is not
// pending.
func (tm Timer) Time() Time {
	if !tm.Pending() {
		return 0
	}
	return tm.e.t
}

// entry is one element of the scheduler's queue: the due time, copied out
// of the event so the common case of distinct times compares without
// touching event memory, and the event itself. Cancel and Reschedule act on
// the queue eagerly, so every entry is live and its event's tie-break keys
// are always the ones the entry was placed by.
type entry struct {
	t Time
	e *event
}

func entryLess(a, b entry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.e.before(b.e)
}

// queueInit is the capacity a cold scheduler's queue starts with: one
// 4 KB allocation holds the paper's Figure 2 world (about 136 events
// pending on average), so a warming world does not regrow its queue
// through the small sizes one allocation at a time.
const queueInit = 256

// Scheduler is a deterministic discrete-event executor. The zero value is
// ready to use. Scheduler is not safe for concurrent use: the simulated
// world is single-threaded by design, which is what makes runs reproducible.
// A Scheduler must stay confined to the goroutine that created it; to use
// many CPUs, run independent Schedulers in parallel (see internal/exp), one
// per replication, never one Scheduler across goroutines.
//
// The queue is an indexed 4-ary min-heap of 16-byte (time, event) entries
// ordered by (time, arming genealogy, insertion sequence): flatter than a
// binary heap (fewer cache-missing levels per sift; a node's four children
// are 64 contiguous bytes) and free of the container/heap interface
// dispatch. Every event records its heap position, so Cancel removes it
// and Reschedule re-keys it in place — the queue holds no dead entries and
// Pending is its length. Event structs come from a per-world freelist and
// fire-or-cancel recycles them, so the steady-state scheduling path
// performs no allocation.
type Scheduler struct {
	now    Time
	seq    uint64
	queue  []entry
	fired  uint64
	halted bool
	free   *event

	// drain, when set, receives the argument of every live argument-carrying
	// event that Reset abandons. See SetResetDrain.
	drain func(any)

	// firing is the event whose callback is currently executing. Step
	// defers recycling the fired event until the callback returns so the
	// callback can re-arm it in place via Rearm — the serialization-chain
	// path in netsim re-uses one event per busy period this way instead of
	// paying a freelist round trip per packet. firingArmT, firingArmT2 and
	// inFire expose the firing event's arming instant and its parent's to
	// callbacks (FiringAsOf, FiringLineage) and seed the genealogy keys of
	// events armed inside the callback; unlike firing, they stay valid
	// through a Rearm until the callback returns.
	firing      *event
	firingArmT  Time
	firingArmT2 Time
	inFire      bool
}

// SetResetDrain installs a hook that Reset hands the argument of every
// still-scheduled AtArg/AfterArg event to, before recycling the event.
// Without it, resetting a world mid-flight strands whatever the pending
// events were carrying — in netsim terms, every packet that was riding a
// propagation or serialization event leaks to the garbage collector and
// the world's packet pool refills from the allocator on the next run. The
// arena wires this to the packet pool (recovered values are recycled, not
// replayed), which is what keeps back-to-back replications allocation-free
// in steady state. Cancelled events never reach the hook; their arguments
// were dropped at Cancel time.
func (s *Scheduler) SetResetDrain(fn func(any)) { s.drain = fn }

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Reset returns the scheduler to the empty time-zero state of a fresh
// NewScheduler while keeping the event freelist and the queue's capacity.
// A worker that runs replications back to back resets one scheduler
// instead of allocating a new world's worth of events each time; because
// every counter (now, seq, fired) restarts from zero, a run on a reset
// scheduler is bit-identical to a run on a fresh one.
func (s *Scheduler) Reset() {
	for i := range s.queue {
		e := s.queue[i].e
		if s.drain != nil && e.arg != nil {
			s.drain(e.arg)
		}
		s.release(e)
		s.queue[i] = entry{}
	}
	*s = Scheduler{queue: s.queue[:0], free: s.free, drain: s.drain}
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired reports how many events have executed so far. Useful for tests,
// for cost accounting in benchmarks, and for the simulated-events/sec
// throughput lines cmd/paperexp prints.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending reports how many events are queued. Cancelled events leave the
// queue at once, so this is the queue's length: safe to call per event.
func (s *Scheduler) Pending() int { return len(s.queue) }

// eventSlab is how many events an empty freelist allocates at once: a
// world's working set of concurrent timers is built one slab allocation
// per 64 events instead of one each. Slabs pin nothing — released events
// clear their callback and argument references.
const eventSlab = 64

// alloc takes an event from the freelist, or grows it by a slab.
func (s *Scheduler) alloc() *event {
	e := s.free
	if e == nil {
		slab := make([]event, eventSlab)
		for i := range slab[1:] {
			slab[1+i].next = s.free
			s.free = &slab[1+i]
		}
		return &slab[0]
	}
	s.free = e.next
	e.next = nil
	return e
}

// release recycles an event: the generation bump invalidates every Timer
// handle pointing at it, and clearing the callback and argument drops their
// references so freelisted events pin no world state.
func (s *Scheduler) release(e *event) {
	e.gen++
	s.releaseFired(e)
}

// releaseFired recycles an event whose generation was already bumped (at
// fire time, in Step). Kept separate from release so Rearm can intercept
// the event between the bump and the recycle.
func (s *Scheduler) releaseFired(e *event) {
	e.fn = nil
	e.afn = nil
	e.arg = nil
	e.next = s.free
	s.free = e
}

// armedNow reports the truthful genealogy keys for an event armed at this
// moment: the arming instant is now, and the ancestor keys are those of the
// currently firing event. Outside a callback (world setup, manual stepping)
// every key is now, which orders after all already-fired work, as it must.
func (s *Scheduler) armedNow() (armT, armT2, armT3 Time) {
	if s.inFire {
		return s.now, s.firingArmT, s.firingArmT2
	}
	return s.now, s.now, s.now
}

// key stamps e with due time t, the arming genealogy and the next arming
// sequence number.
func (s *Scheduler) key(e *event, t, armT, armT2, armT3 Time) {
	e.t = t
	e.armT = armT
	e.armT2 = armT2
	e.armT3 = armT3
	e.seq = s.seq
	s.seq++
}

// schedule queues an event at absolute time t, armed as of virtual instant
// armT with ancestor instants armT2, armT3 (armedNow() for the truthful
// entry points).
func (s *Scheduler) schedule(t, armT, armT2, armT3 Time, fn func(), afn func(any), arg any) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	if armT > t {
		panic(fmt.Sprintf("sim: armed-as-of %v after due time %v", armT, t))
	}
	e := s.alloc()
	e.fn = fn
	e.afn = afn
	e.arg = arg
	s.key(e, t, armT, armT2, armT3)
	s.push(e)
	return Timer{e: e, gen: e.gen}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// that is always a logic error in a discrete-event model.
func (s *Scheduler) At(t Time, fn func()) Timer {
	a1, a2, a3 := s.armedNow()
	return s.schedule(t, a1, a2, a3, fn, nil, nil)
}

// After schedules fn to run d from now. Negative d panics.
func (s *Scheduler) After(d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	a1, a2, a3 := s.armedNow()
	return s.schedule(s.now.Add(d), a1, a2, a3, fn, nil, nil)
}

// AtArg schedules fn(arg) at absolute time t. Passing the argument through
// the scheduler lets hot paths reuse one long-lived callback instead of
// allocating a capturing closure per event (a pointer in an interface does
// not allocate); netsim's per-packet delivery path relies on this.
func (s *Scheduler) AtArg(t Time, fn func(any), arg any) Timer {
	a1, a2, a3 := s.armedNow()
	return s.schedule(t, a1, a2, a3, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d from now. Negative d panics.
func (s *Scheduler) AfterArg(d Duration, fn func(any), arg any) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	a1, a2, a3 := s.armedNow()
	return s.schedule(s.now.Add(d), a1, a2, a3, nil, fn, arg)
}

// AtAsOf schedules fn at absolute time t as if it had been armed at virtual
// instant armedAt by a callback itself armed at parentAt, whose arming
// callback was in turn armed at grandAt. It exists for coalesced timers
// that stand in for events a reference execution would have armed one per
// packet: with a truthful genealogy (the instants the replaced event and
// its two nearest ancestors would have been created), every same-nanosecond
// tie against ordinary events resolves exactly as it would have in the
// reference schedule, because simultaneous events fire in (arming
// genealogy, sequence) order and sequence is itself monotone over arming
// time — including ties where two stand-ins replace events armed at the
// same instant, which the reference orders by the parents' own arming
// instants. The keys must be non-increasing up the chain (grandAt ≤
// parentAt ≤ armedAt ≤ t) and may lie in the future relative to now — they
// are ordering keys, not constraints on when the call is made.
func (s *Scheduler) AtAsOf(t, armedAt, parentAt, grandAt Time, fn func()) Timer {
	checkLineage(t, armedAt, parentAt, grandAt)
	return s.schedule(t, armedAt, parentAt, grandAt, fn, nil, nil)
}

// AtArgAsOf is AtAsOf for an argument-carrying callback.
func (s *Scheduler) AtArgAsOf(t, armedAt, parentAt, grandAt Time, fn func(any), arg any) Timer {
	checkLineage(t, armedAt, parentAt, grandAt)
	return s.schedule(t, armedAt, parentAt, grandAt, nil, fn, arg)
}

// checkLineage validates an explicit arming genealogy: each ancestor was
// armed no later than the event it armed.
func checkLineage(t, armedAt, parentAt, grandAt Time) {
	if armedAt > t || parentAt > armedAt || grandAt > parentAt {
		panic(fmt.Sprintf("sim: arming genealogy %v ≥ %v ≥ %v ≥ %v violated",
			t, armedAt, parentAt, grandAt))
	}
}

// FiringAsOf reports the arming instant of the event whose callback is
// currently executing — the armedAt it was scheduled with, which for
// ordinary events is the time of the callback that armed them. Outside a
// callback it reports Now(), which compares after every arming instant of
// already-fired work, as an outside observer should. Hot-path consumers
// (netsim's batched port) use it to decide whether a reference execution
// would already have fired a coalesced-away event at this same nanosecond:
// the reference fires simultaneous events in arming order, so "armed before
// the currently-firing event was" means "already happened".
func (s *Scheduler) FiringAsOf() Time {
	if s.inFire {
		return s.firingArmT
	}
	return s.now
}

// FiringLineage reports the first two genealogy keys of the event whose
// callback is currently executing: its own arming instant (FiringAsOf) and
// its parent's. Consumers refining a FiringAsOf comparison use the second
// key to break the tie one generation deeper when the arming instants
// themselves collide. Outside a callback both report Now().
func (s *Scheduler) FiringLineage() (armedAt, parentAt Time) {
	if s.inFire {
		return s.firingArmT, s.firingArmT2
	}
	return s.now, s.now
}

// Cancel removes the timer's callback from the queue if it has not fired.
// Cancelling an inert (zero, fired, or already cancelled) timer is a no-op.
// The entry leaves the heap at once — one O(log n) sift from its recorded
// position — so cancel-heavy workloads (TCP retransmission timers rearm on
// every ACK) leave no dead entries behind to be sifted past later.
func (s *Scheduler) Cancel(tm Timer) {
	if tm.e == nil || tm.e.gen != tm.gen {
		return
	}
	s.remove(tm.e.idx)
	s.release(tm.e)
}

// Reschedule moves a still-pending timer to absolute time t without the
// free-and-realloc round trip of Cancel + At: the event is re-keyed and
// sifted from its current heap position, one O(log n) fix with no freelist
// traffic. It takes a fresh arming sequence number, so it orders exactly
// like a newly armed event. The returned Timer supersedes tm, which goes
// inert; callers re-arming a recurring timer must keep the new handle.
// Rescheduling an inert timer reports false and changes nothing; t in the
// past panics. The callback and argument ride along unchanged — Reschedule
// re-times, never re-targets.
func (s *Scheduler) Reschedule(tm Timer, t Time) (Timer, bool) {
	a1, a2, a3 := s.armedNow()
	return s.rescheduleAsOf(tm, t, a1, a2, a3)
}

// RescheduleAsOf is Reschedule with an explicit arming genealogy for the
// re-timed event's tie-break keys (see AtAsOf).
func (s *Scheduler) RescheduleAsOf(tm Timer, t, armedAt, parentAt, grandAt Time) (Timer, bool) {
	checkLineage(t, armedAt, parentAt, grandAt)
	return s.rescheduleAsOf(tm, t, armedAt, parentAt, grandAt)
}

func (s *Scheduler) rescheduleAsOf(tm Timer, t, armT, armT2, armT3 Time) (Timer, bool) {
	e := tm.e
	if e == nil || e.gen != tm.gen {
		return Timer{}, false
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", t, s.now))
	}
	e.gen++ // supersedes every old handle
	s.key(e, t, armT, armT2, armT3)
	s.fix(e.idx, entry{t: t, e: e})
	return Timer{e: e, gen: e.gen}, true
}

// Rearm re-schedules the event whose callback is currently executing to
// fire again at absolute time t, with the same callback and argument. It
// is the chain primitive for self-perpetuating timers (a port's
// serialization-complete handler starting the next transmission, a
// modulator tick arming the next tick): the firing event never touches the
// freelist, so a chain of N firings costs N heap pushes and zero
// alloc/release pairs. Rearm may be called at most once per firing, only
// from inside the callback (panics otherwise), and t must not be in the
// past. Handles taken before the firing are already inert — keep the
// returned Timer to cancel or re-time the chain.
func (s *Scheduler) Rearm(t Time) Timer {
	a1, a2, a3 := s.armedNow()
	return s.rearmAsOf(t, a1, a2, a3)
}

// RearmAsOf is Rearm with an explicit arming genealogy for the re-armed
// event's tie-break keys (see AtAsOf).
func (s *Scheduler) RearmAsOf(t, armedAt, parentAt, grandAt Time) Timer {
	checkLineage(t, armedAt, parentAt, grandAt)
	return s.rearmAsOf(t, armedAt, parentAt, grandAt)
}

func (s *Scheduler) rearmAsOf(t, armT, armT2, armT3 Time) Timer {
	e := s.firing
	if e == nil {
		panic("sim: Rearm outside a firing callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: rearm at %v before now %v", t, s.now))
	}
	s.firing = nil
	s.key(e, t, armT, armT2, armT3)
	s.push(e)
	return Timer{e: e, gen: e.gen}
}

// Halt stops the currently executing Run/RunUntil after the current event
// returns. Queued events are retained, so the run can be resumed.
func (s *Scheduler) Halt() { s.halted = true }

// Step executes the single earliest pending event. It reports false when
// the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue[0].e
	s.remove(0)
	// The generation bump happens at fire time — handles go inert before
	// the callback runs, exactly as with an immediate release — but the
	// struct is recycled only after the callback returns, so the callback
	// may Rearm it in place for the next link of a chain.
	e.gen++
	s.now = e.t
	s.fired++
	s.firing = e
	s.firingArmT = e.armT
	s.firingArmT2 = e.armT2
	s.inFire = true
	if e.afn != nil {
		e.afn(e.arg)
	} else {
		e.fn()
	}
	s.inFire = false
	if s.firing == e {
		s.firing = nil
		s.releaseFired(e)
	}
	return true
}

// Run executes events until the queue drains or Halt is called.
func (s *Scheduler) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled exactly at t do fire.
func (s *Scheduler) RunUntil(t Time) {
	s.halted = false
	for !s.halted && len(s.queue) > 0 && s.queue[0].t <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor runs the simulation for d of simulated time from now.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// push inserts a keyed event into the heap.
func (s *Scheduler) push(e *event) {
	if s.queue == nil {
		s.queue = make([]entry, 0, queueInit)
	}
	s.queue = append(s.queue, entry{})
	s.up(len(s.queue)-1, entry{t: e.t, e: e})
}

// remove deletes the entry at heap position i, refilling the hole with the
// last entry.
func (s *Scheduler) remove(i int) {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue[n] = entry{} // drop the event reference from the dead slot
	s.queue = s.queue[:n]
	if i < n {
		s.fix(i, last)
	}
}

// fix places en into the hole at position i, sifting whichever way its key
// demands.
func (s *Scheduler) fix(i int, en entry) {
	if i > 0 && entryLess(en, s.queue[(i-1)/4]) {
		s.up(i, en)
	} else {
		s.down(i, en)
	}
}

// up moves the hole at position i toward the root until en fits, then
// stores en there. Every entry moved records its new position.
func (s *Scheduler) up(i int, en entry) {
	q := s.queue
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(en, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].e.idx = i
		i = p
	}
	q[i] = en
	en.e.idx = i
}

// down moves the hole at position i toward the leaves until en fits, then
// stores en there.
func (s *Scheduler) down(i int, en entry) {
	q := s.queue
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(q[j], q[best]) {
				best = j
			}
		}
		if !entryLess(q[best], en) {
			break
		}
		q[i] = q[best]
		q[i].e.idx = i
		i = best
	}
	q[i] = en
	en.e.idx = i
}
