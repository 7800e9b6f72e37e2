package sim

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// The TestWheel* cases date from when a two-level timing wheel fronted the
// heap. They stay as ordering regressions at the magnitudes that wheel
// bucketed by — 2^16 ns ticks, 256-tick wraps, 2^24 ns coarse ticks and
// the overflow beyond them — and now assert on the one queue instead.
const (
	tickDur     = Duration(1) << 16 // one former level-0 tick (~65.5 µs)
	coarseDur   = Duration(1) << 24 // one former level-1 tick (~16.8 ms)
	ticksPerRev = 256               // ticks per former wheel revolution
)

// checkQueue asserts the queue's structural invariants: every entry's
// cached time and recorded index match its event, the 4-ary heap order
// holds from each parent to its children, and Pending is the length.
func checkQueue(t testing.TB, s *Scheduler) {
	t.Helper()
	q := s.queue
	for i, en := range q {
		if en.e == nil {
			t.Fatalf("queue[%d] has no event", i)
		}
		if en.e.idx != i {
			t.Fatalf("queue[%d] records index %d", i, en.e.idx)
		}
		if en.t != en.e.t {
			t.Fatalf("queue[%d] caches time %v, event due %v", i, en.t, en.e.t)
		}
		if i > 0 && entryLess(en, q[(i-1)/4]) {
			t.Fatalf("queue[%d] orders before its parent queue[%d]", i, (i-1)/4)
		}
	}
	if s.Pending() != len(q) {
		t.Fatalf("Pending() = %d, queue holds %d", s.Pending(), len(q))
	}
}

// Entries are (time, *event): the genealogy keys live on the event and are
// read only on a due-time tie.
func TestEntryIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(entry{}) = %d, want 16", got)
	}
}

// Cancel removes the entry and Reschedule re-keys it in place: the queue
// length tracks the live population at every step, with no dead entries
// left to sift past later.
func TestCancelAndRescheduleActOnQueueImmediately(t *testing.T) {
	s := NewScheduler()
	var timers []Timer
	for i := 0; i < 40; i++ {
		timers = append(timers, s.After(Duration(40-i)*Millisecond, func() {}))
	}
	checkQueue(t, s)
	for i := 0; i < 40; i += 2 {
		before := len(s.queue)
		s.Cancel(timers[i])
		if len(s.queue) != before-1 {
			t.Fatalf("cancel %d: queue %d → %d, want one fewer", i, before, len(s.queue))
		}
		checkQueue(t, s)
	}
	for i := 1; i < 40; i += 2 {
		before := len(s.queue)
		tm, ok := s.Reschedule(timers[i], Time(Duration(i)*Microsecond))
		if !ok {
			t.Fatalf("reschedule %d failed", i)
		}
		timers[i] = tm
		if len(s.queue) != before {
			t.Fatalf("reschedule %d: queue %d → %d, want unchanged", i, before, len(s.queue))
		}
		checkQueue(t, s)
	}
	if len(s.queue) != 20 {
		t.Fatalf("queue holds %d entries, want 20", len(s.queue))
	}
	s.Run()
	if s.Fired() != 20 {
		t.Fatalf("fired %d, want 20", s.Fired())
	}
}

// Events spread across more former level-0 ticks than that level had slots
// (three full revolutions) must each fire exactly once, in time order.
func TestWheelSlotRollover(t *testing.T) {
	s := NewScheduler()
	const n = 3 * ticksPerRev
	fired := make([]Time, 0, n)
	for i := n - 1; i >= 0; i-- {
		s.At(Time(Duration(i)*tickDur+tickDur/2), func() { fired = append(fired, s.Now()) })
	}
	checkQueue(t, s)
	s.Run()
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}

// Cancelling removes the event eagerly at any horizon: the queue shrinks,
// Pending drops, same-time neighbors survive, and the event never fires.
func TestWheelCancelInWheel(t *testing.T) {
	s := NewScheduler()
	// A near pair (~0.66 ms) and a far pair (200 ms), each with a
	// same-time neighbor that must survive.
	e0 := s.After(10*tickDur, func() { t.Fatal("cancelled near event fired") })
	ok0 := false
	s.After(10*tickDur, func() { ok0 = true })
	e1 := s.After(200*Millisecond, func() { t.Fatal("cancelled far event fired") })
	ok1 := false
	s.After(200*Millisecond, func() { ok1 = true })
	if s.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", s.Pending())
	}
	s.Cancel(e0)
	s.Cancel(e1)
	if s.Pending() != 2 {
		t.Fatalf("pending after cancel = %d, want 2", s.Pending())
	}
	if len(s.queue) != 2 {
		t.Fatalf("queue holds %d entries after eager cancel, want 2", len(s.queue))
	}
	checkQueue(t, s)
	s.Run()
	if !ok0 || !ok1 {
		t.Fatalf("surviving same-time neighbors did not fire: ok0=%v ok1=%v", ok0, ok1)
	}
}

// Events at every horizon — sub-millisecond, tens of milliseconds, and
// seconds out — interleave in exact time order, including ties broken by
// insertion sequence.
func TestWheelOverflowToHeapOrdering(t *testing.T) {
	s := NewScheduler()
	var fired []int
	far := 6 * Second // beyond the former ~4.29 s wheel horizon
	s.After(far, func() { fired = append(fired, 2) })
	s.After(far+Millisecond, func() { fired = append(fired, 3) })
	s.After(50*Millisecond, func() { fired = append(fired, 0) })
	s.After(3*tickDur, func() { fired = append(fired, 1) })
	// Same-time tie: the earlier-armed event fires first.
	s.At(Time(far), func() { fired = append(fired, 4) })
	s.Run()
	want := []int{1, 0, 2, 4, 3}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("order = %v, want %v", fired, want)
		}
	}
}

// Reset with events still queued must empty the queue, recycle every event
// to the freelist, keep the queue's capacity, and leave the scheduler
// behaving exactly like a fresh one.
func TestWheelResetWithPendingEntries(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10; i++ {
		s.After(Duration(i+1)*tickDur, func() { t.Fatal("stale near event fired") })
		s.After(Duration(i+1)*100*Millisecond, func() { t.Fatal("stale far event fired") })
	}
	s.After(10*Second, func() { t.Fatal("stale overflow event fired") })
	// Move the clock without firing anything: the earliest event is past
	// the target.
	s.RunUntil(Time(tickDur / 2))
	capBefore := cap(s.queue)
	s.Reset()
	if s.Pending() != 0 || len(s.queue) != 0 {
		t.Fatalf("reset left state: pending=%d queue=%d", s.Pending(), len(s.queue))
	}
	if cap(s.queue) != capBefore {
		t.Fatalf("reset dropped queue capacity: %d → %d", capBefore, cap(s.queue))
	}
	if s.Now() != 0 || s.seq != 0 || s.Fired() != 0 {
		t.Fatalf("reset left clock/counters: now=%v seq=%d fired=%d", s.Now(), s.seq, s.Fired())
	}
	free := 0
	for e := s.free; e != nil; e = e.next {
		if e.fn != nil || e.afn != nil || e.arg != nil {
			t.Fatal("freelisted event still references its callback")
		}
		free++
	}
	if free != eventSlab {
		t.Fatalf("freelist holds %d events after reset, want the whole %d-event slab", free, eventSlab)
	}
	// A post-reset run behaves exactly like a fresh scheduler's.
	n := 0
	s.After(tickDur, func() { n++ })
	s.After(300*Millisecond, func() { n++ })
	s.Run()
	if n != 2 || s.Fired() != 2 {
		t.Fatalf("post-reset run: n=%d fired=%d", n, s.Fired())
	}
}

// An event armed mid-run for a time one full coarse revolution after an
// already-fired event must wait for its own time, not fire early or get
// lost.
func TestWheelLevel1SlotReuseAcrossWrap(t *testing.T) {
	s := NewScheduler()
	var fired []int
	soon := 2 * coarseDur
	late := soon + ticksPerRev*coarseDur
	s.After(soon, func() { fired = append(fired, 0) })
	s.After(soon+Millisecond, func() {
		s.After(late-Duration(s.Now())-Millisecond, func() { fired = append(fired, 2) })
		fired = append(fired, 1)
	})
	s.Run()
	want := []int{0, 1, 2}
	if len(fired) != 3 || fired[0] != 0 || fired[1] != 1 || fired[2] != 2 {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// After an idle stretch carries the clock far ahead, a near-future event
// is queued at the root and fires on time.
func TestWheelRebaseAfterIdle(t *testing.T) {
	s := NewScheduler()
	s.After(6*Second, func() {})
	s.RunUntil(Time(6 * Second))
	n := 0
	tm := s.After(3*tickDur, func() { n++ })
	if len(s.queue) != 1 || s.queue[0].e != tm.e || tm.e.idx != 0 {
		t.Fatalf("near-future event not queued at the root: queue=%d", len(s.queue))
	}
	s.Run()
	if n != 1 || s.Now() != Time(6*Second+3*tickDur) {
		t.Fatalf("event did not fire on time: n=%d now=%v", n, s.Now())
	}
}

// Property: any random workload — delays from sub-tick to far overflow,
// with random cancellations — fires in exactly the order the (time,
// sequence) contract demands.
func TestWheelOrderEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		s := NewScheduler()
		type ev struct {
			t   Time
			seq int
		}
		var want []ev
		var got []ev
		n := 50 + rng.Intn(150)
		timers := make([]Timer, 0, n)
		for i := 0; i < n; i++ {
			var d Duration
			switch rng.Intn(4) {
			case 0:
				d = Duration(rng.Int63n(int64(tickDur)))
			case 1:
				d = Duration(rng.Int63n(int64(tickDur) * ticksPerRev))
			case 2:
				d = Duration(rng.Int63n(int64(Second) * 4))
			default:
				d = Duration(rng.Int63n(int64(Second) * 20))
			}
			i := i
			timers = append(timers, s.After(d, func() { got = append(got, ev{s.Now(), i}) }))
			want = append(want, ev{Time(d), i})
		}
		cancelled := make(map[int]bool)
		for k := 0; k < n/4; k++ {
			j := rng.Intn(n)
			if !cancelled[j] {
				s.Cancel(timers[j])
				cancelled[j] = true
			}
		}
		checkQueue(t, s)
		live := want[:0]
		for _, w := range want {
			if !cancelled[w.seq] {
				live = append(live, w)
			}
		}
		sort.SliceStable(live, func(a, b int) bool { return live[a].t < live[b].t })
		s.Run()
		if len(got) != len(live) {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(got), len(live))
		}
		for i := range live {
			if got[i] != live[i] {
				t.Fatalf("trial %d: event %d = %+v, want %+v", trial, i, got[i], live[i])
			}
		}
	}
}
