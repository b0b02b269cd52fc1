package sim

import (
	"testing"
	"testing/quick"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("now = %d", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of insertion order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var got []string
	s.At(10, func() {
		got = append(got, "a")
		s.After(5, func() { got = append(got, "b") })
		s.After(0, func() { got = append(got, "a2") })
	})
	s.Run(0)
	if len(got) != 3 || got[0] != "a" || got[1] != "a2" || got[2] != "b" {
		t.Fatalf("nested order = %v", got)
	}
}

func TestTimerCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.At(10, func() { fired = true })
	tm.Cancel()
	s.Run(0)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	tm.Cancel() // double cancel is safe
}

func TestPastTimeClamped(t *testing.T) {
	s := NewScheduler(1)
	s.At(10, func() {
		s.At(3, func() {
			if s.Now() < 10 {
				t.Errorf("time went backwards: %d", s.Now())
			}
		})
	})
	s.Run(0)
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	ran := 0
	s.At(10, func() { ran++ })
	s.At(20, func() { ran++ })
	s.At(30, func() { ran++ })
	s.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if s.Now() != 20 {
		t.Fatalf("now = %d, want 20", s.Now())
	}
	s.Run(0)
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
}

func TestRunMaxSteps(t *testing.T) {
	s := NewScheduler(1)
	// Self-perpetuating event chain must stop at the step budget.
	var tick func()
	tick = func() { s.After(1, tick) }
	s.After(1, tick)
	n := s.Run(100)
	if n != 100 {
		t.Fatalf("steps = %d, want 100", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		s := NewScheduler(42)
		var trace []Time
		var step func()
		count := 0
		step = func() {
			trace = append(trace, s.Now())
			count++
			if count < 50 {
				s.After(Time(1+s.Rand().Intn(10)), step)
			}
		}
		s.After(0, step)
		s.Run(0)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: events always execute in nondecreasing time order.
func TestMonotoneTimeProperty(t *testing.T) {
	prop := func(seed int64, delays []uint8) bool {
		s := NewScheduler(seed)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			s.At(Time(d), func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run(0)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
