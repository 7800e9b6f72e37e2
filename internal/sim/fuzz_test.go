package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// modelEvent is one pending event in the scheduler oracle: its full
// ordering key and the test's id for it.
type modelEvent struct {
	t, armT, armT2, armT3 Time
	seq                   uint64
	id                    int
	arg                   bool // scheduled through AfterArg
}

func modelLess(a, b modelEvent) bool {
	switch {
	case a.t != b.t:
		return a.t < b.t
	case a.armT != b.armT:
		return a.armT < b.armT
	case a.armT2 != b.armT2:
		return a.armT2 < b.armT2
	case a.armT3 != b.armT3:
		return a.armT3 < b.armT3
	}
	return a.seq < b.seq
}

// schedFuzz replays a byte program against a real Scheduler and a model: a
// slice of pending events kept sorted by (t, armT, armT2, armT3, seq),
// with the model's own clock, sequence counter and arming genealogy. Every
// firing must be the model's minimum; after every top-level operation
// Pending, each handle's Pending and Time, and the queue's invariants must
// agree with the model. Callbacks consume program bytes too, so events are
// armed, cancelled, re-timed and re-armed from inside firings, where the
// genealogy keys differ from Now.
type schedFuzz struct {
	t   *testing.T
	s   *Scheduler
	in  []byte
	pos int

	now     Time
	seq     uint64
	fired   uint64
	pending []modelEvent
	timers  []Timer // by id; superseded handles are replaced

	inFire              bool
	fireArmT, fireArmT2 Time
	firingID            int
	firingArg           bool
	rearmed             bool
}

func (f *schedFuzz) next() byte {
	if f.pos >= len(f.in) {
		return 0
	}
	b := f.in[f.pos]
	f.pos++
	return b
}

// delay draws 0–7 µs: a narrow range, so equal due times are common.
func (f *schedFuzz) delay() Duration { return Duration(f.next()%8) * Microsecond }

// back steps a key 0–2 µs earlier, floored at zero.
func (f *schedFuzz) back(x Time) Time {
	d := Time(f.next()%3) * Time(Microsecond)
	if d > x {
		return 0
	}
	return x - d
}

// lineage draws a due time and an explicit, valid arming genealogy near
// now, so stand-in events tie with each other and with truthful ones.
func (f *schedFuzz) lineage() (t, a1, a2, a3 Time) {
	t = f.now.Add(f.delay())
	a1 = f.back(t)
	a2 = f.back(a1)
	a3 = f.back(a2)
	return
}

func (f *schedFuzz) armedNow() (Time, Time, Time) {
	if f.inFire {
		return f.now, f.fireArmT, f.fireArmT2
	}
	return f.now, f.now, f.now
}

func (f *schedFuzz) add(id int, t, a1, a2, a3 Time, arg bool) {
	ev := modelEvent{t: t, armT: a1, armT2: a2, armT3: a3, seq: f.seq, id: id, arg: arg}
	f.seq++
	i := sort.Search(len(f.pending), func(i int) bool { return modelLess(ev, f.pending[i]) })
	f.pending = append(f.pending, modelEvent{})
	copy(f.pending[i+1:], f.pending[i:])
	f.pending[i] = ev
}

// remove drops id from the model, reporting whether it was pending.
func (f *schedFuzz) remove(id int) (modelEvent, bool) {
	for i, ev := range f.pending {
		if ev.id == id {
			f.pending = append(f.pending[:i], f.pending[i+1:]...)
			return ev, true
		}
	}
	return modelEvent{}, false
}

func (f *schedFuzz) pick() int {
	if len(f.timers) == 0 {
		return -1
	}
	return int(f.next()) % len(f.timers)
}

// fire is every event's callback: the firing must be the model's minimum,
// at its due time; then the callback runs up to two nested operations.
func (f *schedFuzz) fire(id int) {
	if len(f.pending) == 0 {
		f.t.Fatalf("event %d fired with the model empty", id)
	}
	want := f.pending[0]
	if want.id != id || f.s.Now() != want.t {
		f.t.Fatalf("fired event %d at %v, model wants %d at %v", id, f.s.Now(), want.id, want.t)
	}
	f.pending = f.pending[1:]
	f.now = want.t
	f.fired++
	if tm := f.timers[id]; tm.Pending() || tm.Time() != 0 {
		f.t.Fatalf("event %d's handle is live during its own callback", id)
	}
	f.inFire, f.fireArmT, f.fireArmT2, f.firingID, f.firingArg, f.rearmed = true, want.armT, want.armT2, id, want.arg, false
	for k := f.next() % 3; k > 0; k-- {
		f.op()
	}
	f.inFire = false
}

func (f *schedFuzz) fireArg(a any) { f.fire(a.(int)) }

// op decodes and applies one operation to both the scheduler and the
// model. Run-control operations (RunUntil, Step, Reset) apply only at top
// level; Rearm only inside a callback, at most once per firing.
func (f *schedFuzz) op() {
	switch f.next() % 11 {
	case 0: // At
		t := f.now.Add(f.delay())
		id := len(f.timers)
		a1, a2, a3 := f.armedNow()
		f.timers = append(f.timers, f.s.At(t, func() { f.fire(id) }))
		f.add(id, t, a1, a2, a3, false)
	case 1: // AfterArg
		d := f.delay()
		id := len(f.timers)
		a1, a2, a3 := f.armedNow()
		f.timers = append(f.timers, f.s.AfterArg(d, f.fireArg, id))
		f.add(id, f.now.Add(d), a1, a2, a3, true)
	case 2: // AtAsOf
		t, a1, a2, a3 := f.lineage()
		id := len(f.timers)
		f.timers = append(f.timers, f.s.AtAsOf(t, a1, a2, a3, func() { f.fire(id) }))
		f.add(id, t, a1, a2, a3, false)
	case 3: // Cancel, possibly through a stale handle
		id := f.pick()
		if id < 0 {
			return
		}
		f.s.Cancel(f.timers[id])
		f.remove(id)
	case 4, 5: // Reschedule / RescheduleAsOf
		id := f.pick()
		if id < 0 {
			return
		}
		var t, a1, a2, a3 Time
		var tm Timer
		var ok bool
		if f.next()%2 == 0 {
			t = f.now.Add(f.delay())
			a1, a2, a3 = f.armedNow()
			tm, ok = f.s.Reschedule(f.timers[id], t)
		} else {
			t, a1, a2, a3 = f.lineage()
			tm, ok = f.s.RescheduleAsOf(f.timers[id], t, a1, a2, a3)
		}
		ev, live := f.remove(id)
		if ok != live {
			f.t.Fatalf("Reschedule of event %d reported %v, model pending=%v", id, ok, live)
		}
		if ok {
			f.timers[id] = tm
			f.add(id, t, a1, a2, a3, ev.arg)
		}
	case 6: // Rearm / RearmAsOf
		if !f.inFire || f.rearmed {
			return
		}
		f.rearmed = true
		id := f.firingID
		var t, a1, a2, a3 Time
		if f.next()%2 == 0 {
			t = f.now.Add(f.delay())
			a1, a2, a3 = f.armedNow()
			f.timers[id] = f.s.Rearm(t)
		} else {
			t, a1, a2, a3 = f.lineage()
			f.timers[id] = f.s.RearmAsOf(t, a1, a2, a3)
		}
		f.add(id, t, a1, a2, a3, f.firingArg)
	case 7, 8: // RunUntil
		if f.inFire {
			return
		}
		t := f.now.Add(Duration(f.next()%16) * Microsecond)
		f.s.RunUntil(t)
		if len(f.pending) > 0 && f.pending[0].t <= t {
			f.t.Fatalf("RunUntil(%v) left event %d due %v", t, f.pending[0].id, f.pending[0].t)
		}
		if f.now < t {
			f.now = t
		}
	case 9: // Step
		if f.inFire {
			return
		}
		want := len(f.pending) > 0
		if got := f.s.Step(); got != want {
			f.t.Fatalf("Step reported %v with %d model events pending", got, len(f.pending))
		}
	case 10: // Reset: every pending AfterArg argument reaches the drain
		if f.inFire {
			return
		}
		var drained, want []int
		f.s.SetResetDrain(func(a any) { drained = append(drained, a.(int)) })
		for _, ev := range f.pending {
			if ev.arg {
				want = append(want, ev.id)
			}
		}
		f.s.Reset()
		f.s.SetResetDrain(nil)
		sort.Ints(drained)
		sort.Ints(want)
		if len(drained) != len(want) {
			f.t.Fatalf("Reset drained %v, want %v", drained, want)
		}
		for i := range want {
			if drained[i] != want[i] {
				f.t.Fatalf("Reset drained %v, want %v", drained, want)
			}
		}
		f.pending = f.pending[:0]
		f.now, f.seq, f.fired = 0, 0, 0
	}
}

// check compares the scheduler's observable state with the model's.
func (f *schedFuzz) check() {
	checkQueue(f.t, f.s)
	if f.s.Pending() != len(f.pending) || f.s.Now() != f.now || f.s.Fired() != f.fired {
		f.t.Fatalf("scheduler pending=%d now=%v fired=%d, model pending=%d now=%v fired=%d",
			f.s.Pending(), f.s.Now(), f.s.Fired(), len(f.pending), f.now, f.fired)
	}
	due := make(map[int]Time, len(f.pending))
	for _, ev := range f.pending {
		due[ev.id] = ev.t
	}
	for id, tm := range f.timers {
		t, live := due[id]
		if tm.Pending() != live || tm.Time() != t {
			f.t.Fatalf("timer %d: Pending=%v Time=%v, model pending=%v due=%v",
				id, tm.Pending(), tm.Time(), live, t)
		}
	}
}

func runSchedFuzz(t *testing.T, prog []byte) {
	f := &schedFuzz{t: t, s: NewScheduler(), in: prog}
	for f.pos < len(f.in) {
		f.op()
		f.check()
	}
	f.s.Run()
	f.check()
	if len(f.pending) != 0 {
		t.Fatalf("Run returned with %d model events pending", len(f.pending))
	}
}

// FuzzScheduler checks the scheduler against a sorted-slice oracle over
// random sequences of At/AfterArg/AtAsOf/Cancel/Reschedule/RescheduleAsOf/
// Rearm/RearmAsOf/RunUntil/Step/Reset: the firing order, Pending, and every
// handle's Pending and Time.
func FuzzScheduler(f *testing.F) {
	// Ten At calls at the same instant, then run: FIFO by sequence.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0})
	// Equal-time genealogy ties: AtAsOf stand-ins due at the same instant
	// whose arming instants agree and whose parents' and grandparents'
	// differ, interleaved with a truthful event at that instant.
	f.Add([]byte{0, 2, 9, 5, 2, 2, 0, 0, 0, 2, 5, 0, 1, 0, 2, 5, 0, 0, 1, 2, 5, 2, 2, 2, 7, 15})
	f.Add([]byte{7, 3, 2, 3, 0, 0, 0, 2, 3, 0, 0, 2, 2, 3, 0, 2, 0, 2, 3, 1, 1, 1, 9, 9, 9, 9})
	// Rearm chains from inside callbacks, with nested cancels and
	// reschedules of the rearmed event.
	f.Add([]byte{0, 1, 9, 2, 6, 0, 3, 9, 1, 6, 1, 4, 2, 1, 9, 2, 3, 1, 6, 0, 4, 9, 9, 9})
	// Reset with AfterArg events pending, then reuse.
	f.Add([]byte{1, 3, 1, 3, 0, 2, 2, 1, 1, 1, 10, 0, 1, 1, 2, 7, 15})
	// Stale handles: cancel and reschedule after the event fired and its
	// struct was recycled.
	f.Add([]byte{0, 1, 9, 0, 1, 0, 3, 0, 4, 0, 5, 5, 0, 0, 0, 7, 15})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		prog := make([]byte, 64+rng.Intn(192))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runSchedFuzz(t, prog)
	})
}
