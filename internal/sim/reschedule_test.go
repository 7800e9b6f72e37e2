package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSchedulerReschedule(t *testing.T) {
	s := NewScheduler()
	var order []int
	tm := s.After(1*Second, func() { order = append(order, 1) })
	s.After(2*Second, func() { order = append(order, 2) })

	// Move the 1s event past the 2s one; the old handle goes inert.
	tm2, ok := s.Reschedule(tm, Time(3*Second))
	if !ok {
		t.Fatal("reschedule of a pending timer failed")
	}
	if tm.Pending() {
		t.Fatal("superseded handle still pending")
	}
	if !tm2.Pending() || tm2.Time() != Time(3*Second) {
		t.Fatalf("rescheduled timer: pending=%v time=%v", tm2.Pending(), tm2.Time())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	// And back before the 2s event.
	tm3, ok := s.Reschedule(tm2, Time(1500*Millisecond))
	if !ok {
		t.Fatal("second reschedule failed")
	}
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
	if s.Fired() != 2 {
		t.Fatalf("fired = %d, want 2 (the superseded time must not fire)", s.Fired())
	}
	if tm3.Pending() {
		t.Fatal("fired timer still pending")
	}
	// Inert handles (fired, superseded, zero) reschedule to nothing.
	if _, ok := s.Reschedule(tm3, Time(5*Second)); ok {
		t.Fatal("rescheduled a fired timer")
	}
	if _, ok := s.Reschedule(Timer{}, Time(5*Second)); ok {
		t.Fatal("rescheduled the zero timer")
	}
}

func TestSchedulerRescheduleCancel(t *testing.T) {
	s := NewScheduler()
	tm := s.After(Second, func() { t.Fatal("cancelled event fired") })
	tm2, _ := s.Reschedule(tm, Time(2*Second))
	s.Cancel(tm) // stale handle: must not touch the rescheduled event
	if !tm2.Pending() {
		t.Fatal("stale Cancel hit the rescheduled event")
	}
	s.Cancel(tm2)
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after cancel", s.Pending())
	}
	s.Run()
}

// Reschedule must move an event between any two horizons — near to far,
// far to near, within either — and the result must fire exactly like a
// freshly scheduled event.
func TestSchedulerRescheduleResidency(t *testing.T) {
	const far = Duration(10 * Second)
	moves := [][2]Duration{
		{far, Millisecond},
		{Millisecond, far},
		{Millisecond, 2 * Millisecond},
		{far, far + Second},
		{20 * Millisecond, 40 * Second},
	}
	for _, mv := range moves {
		s := NewScheduler()
		fired := Time(0)
		tm := s.After(mv[0], func() { fired = s.Now() })
		if _, ok := s.Reschedule(tm, Time(mv[1])); !ok {
			t.Fatalf("reschedule %v→%v failed", mv[0], mv[1])
		}
		s.Run()
		if fired != Time(mv[1]) {
			t.Fatalf("moved %v→%v: fired at %v", mv[0], mv[1], fired)
		}
		if s.Fired() != 1 {
			t.Fatalf("moved %v→%v: fired %d events", mv[0], mv[1], s.Fired())
		}
	}
}

// Property: a run that re-times timers with Reschedule is indistinguishable
// from one that cancels and re-schedules — same fire times, same order,
// same Pending accounting.
func TestSchedulerRescheduleEquivalence(t *testing.T) {
	run := func(seed int64, useReschedule bool) []Time {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var fired []Time
		note := func() { fired = append(fired, s.Now()) }
		timers := make([]Timer, 40)
		for i := range timers {
			timers[i] = s.After(Duration(rng.Int63n(int64(50*Millisecond)))+1, note)
		}
		for i := 0; i < 200; i++ {
			k := rng.Intn(len(timers))
			at := s.Now().Add(Duration(rng.Int63n(int64(50 * Millisecond))))
			if useReschedule {
				if tm, ok := s.Reschedule(timers[k], at); ok {
					timers[k] = tm
				} else {
					timers[k] = s.At(at, note)
				}
			} else {
				if timers[k].Pending() {
					s.Cancel(timers[k])
				}
				timers[k] = s.At(at, note)
			}
			// Let some events fire between moves.
			if i%5 == 0 {
				s.Step()
			}
		}
		s.Run()
		return fired
	}
	f := func(seed int64) bool {
		a := run(seed, true)
		b := run(seed, false)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerRearmChain(t *testing.T) {
	s := NewScheduler()
	var times []Time
	n := 0
	var tm Timer
	tick := func() {
		times = append(times, s.Now())
		if n++; n < 5 {
			tm = s.Rearm(s.Now().Add(Millisecond))
		}
	}
	tm = s.After(Millisecond, tick)
	s.Run()
	if len(times) != 5 {
		t.Fatalf("chain fired %d times, want 5", len(times))
	}
	for i, at := range times {
		if at != Time(Duration(i+1)*Millisecond) {
			t.Fatalf("fire %d at %v", i, at)
		}
	}
	if s.Fired() != 5 || s.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d", s.Fired(), s.Pending())
	}
	if tm.Pending() {
		t.Fatal("finished chain still pending")
	}
}

// A rearmed chain keeps its argument, interleaves correctly with other
// events, and the returned handle cancels the chain.
func TestSchedulerRearmArgAndCancel(t *testing.T) {
	s := NewScheduler()
	var got []int
	var tm Timer
	fn := func(a any) {
		got = append(got, a.(int))
		tm = s.Rearm(s.Now().Add(Second))
	}
	tm = s.AfterArg(Second, fn, 7)
	other := 0
	s.After(2500*Millisecond, func() { other = len(got) })
	s.RunUntil(Time(3 * Second))
	if len(got) != 3 || got[0] != 7 || got[2] != 7 {
		t.Fatalf("got = %v", got)
	}
	if other != 2 {
		t.Fatalf("interleaved event saw %d chain fires, want 2", other)
	}
	s.Cancel(tm)
	s.Run()
	if len(got) != 3 {
		t.Fatalf("cancelled chain kept firing: %v", got)
	}
}

// During a callback the firing timer's own handle is already inert —
// Pending reports false, Cancel is a no-op — whether or not the callback
// goes on to Rearm.
func TestSchedulerRearmHandleInertDuringFire(t *testing.T) {
	s := NewScheduler()
	var tm Timer
	rearmed := false
	tm = s.After(Second, func() {
		if tm.Pending() {
			t.Error("handle pending during its own callback")
		}
		s.Cancel(tm) // must not disturb the upcoming Rearm
		if !rearmed {
			rearmed = true
			tm = s.Rearm(s.Now().Add(Second))
		}
	})
	s.Run()
	if !rearmed || s.Fired() != 2 {
		t.Fatalf("rearmed=%v fired=%d", rearmed, s.Fired())
	}
}

func TestSchedulerRearmOutsideCallbackPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("Rearm outside a callback did not panic")
		}
	}()
	s.Rearm(Time(Second))
}

// A rearm chain is the zero-allocation path: after warmup, N chained
// firings touch neither the allocator nor the freelist.
func TestSchedulerRearmAllocFree(t *testing.T) {
	s := NewScheduler()
	n := 0
	tick := func() {
		if n++; n < 1000 {
			s.Rearm(s.Now().Add(Millisecond))
		}
	}
	s.After(Millisecond, tick)
	s.Run()
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		s.After(Millisecond, tick)
		s.Run()
	})
	if allocs > 1 { // tolerance for the testing harness itself
		t.Fatalf("rearm chain allocated %.1f times per op", allocs)
	}
}

// Reset with a live rearm chain pending must recycle it like any other
// event and leave the scheduler bit-identical to a fresh one.
func TestSchedulerRearmThenReset(t *testing.T) {
	s := NewScheduler()
	s.After(Millisecond, func() { s.Rearm(s.Now().Add(Millisecond)) })
	for i := 0; i < 10; i++ {
		s.Step()
	}
	s.Reset()
	if s.Pending() != 0 || s.Now() != 0 || s.Fired() != 0 {
		t.Fatalf("reset left pending=%d now=%v fired=%d", s.Pending(), s.Now(), s.Fired())
	}
	ran := false
	s.After(Millisecond, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("scheduler dead after reset")
	}
}
