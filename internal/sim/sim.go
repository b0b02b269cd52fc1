// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event scheduler ordered by (time, insertion sequence),
// cancellable timers, and a seeded random source. Every protocol in this
// repository runs on this kernel, so whole-system executions — including
// crash and timeout scenarios — replay identically for a given seed.
package sim

import (
	"container/heap"
	"math/rand"

	"speccat/internal/rt"
)

// Time is simulated time in abstract ticks (protocols interpret a tick as a
// millisecond). Times never wrap in practice. It is an alias of rt.Time:
// the simulator and the runtime boundary speak the same tick type, so
// engines ported to the rt interfaces interoperate with sim-facing
// harness code without conversions.
type Time = rt.Time

// Timer is a handle to a scheduled event; Cancel prevents it from firing.
type Timer struct {
	ev *event
}

// Cancel marks the timer's event as void. Safe to call multiple times and
// after firing.
func (t *Timer) Cancel() {
	if t != nil && t.ev != nil {
		t.ev.cancelled = true
	}
}

// event is one scheduled callback.
type event struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	index     int
}

// eventHeap orders events by (at, seq) for determinism.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Scheduler is a deterministic discrete-event scheduler. It is not safe
// for concurrent use: simulations are single-threaded by design.
type Scheduler struct {
	now    Time
	events eventHeap
	seq    uint64
	rng    *rand.Rand
	steps  uint64
}

// NewScheduler returns a scheduler whose random source is seeded with seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Steps returns how many events have been executed.
func (s *Scheduler) Steps() uint64 { return s.steps }

// At schedules fn at absolute time t (clamped to now for past times) and
// returns a cancellable timer.
func (s *Scheduler) At(t Time, fn func()) *Timer {
	if t < s.now {
		t = s.now
	}
	ev := &event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, ev)
	return &Timer{ev: ev}
}

// After schedules fn d ticks from now.
func (s *Scheduler) After(d Time, fn func()) *Timer {
	return s.At(s.now+d, fn)
}

// Step executes the next event; it reports whether an event ran.
func (s *Scheduler) Step() bool {
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(*event)
		if ev.cancelled {
			continue
		}
		s.now = ev.at
		s.steps++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until none remain or maxSteps events have run
// (maxSteps <= 0 means no limit). It returns the number of events executed.
func (s *Scheduler) Run(maxSteps int) int {
	n := 0
	for maxSteps <= 0 || n < maxSteps {
		if !s.Step() {
			break
		}
		n++
	}
	return n
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled for later remain pending.
func (s *Scheduler) RunUntil(t Time) {
	for len(s.events) > 0 {
		// Peek.
		next := s.events[0]
		if next.cancelled {
			heap.Pop(&s.events)
			continue
		}
		if next.at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}
