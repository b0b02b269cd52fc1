package main

import (
	"fmt"
	"sync"
	"time"
)

// port executes one generated transaction against a cluster. The
// end-to-end runs use linePort (tpcserve's client port over TCP); the
// traced run uses the in-process port of trace.go.
type port interface {
	exec(c call) (outcome, error)
	close()
}

// linePort sends the generated command lines to a tpcserve coordinator.
type linePort struct{ c *lineClient }

func (p linePort) exec(c call) (outcome, error) { return p.c.exec(c.lines()) }
func (p linePort) close()                       { p.c.close() }

// sample is one completed transaction of the measured window.
type sample struct {
	done time.Duration // completion time since the window started
	lat  time.Duration
	kind txnKind
}

// loadResult is what one connection (and, merged, one window) produced.
type loadResult struct {
	samples   []sample
	attempted int
	failed    int
	late      int   // open loop: sends that left more than 1 ms after they were due
	firstFail error // the first failed transaction, for the report
	err       error // a broken connection or protocol error: the run is void
}

func (r *loadResult) merge(o *loadResult) {
	r.samples = append(r.samples, o.samples...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.late += o.late
	if r.firstFail == nil {
		r.firstFail = o.firstFail
	}
	if r.err == nil {
		r.err = o.err
	}
}

// step runs one transaction and folds its outcome into the model and the
// result. from is the instant its latency counts from.
func step(p port, s *stream, res *loadResult, start, from time.Time) bool {
	t := s.gen()
	out, err := p.exec(s.call(t))
	done := time.Now()
	res.attempted++
	if err != nil {
		res.err = fmt.Errorf("conn %d: %s: %w", s.conn, t.name, err)
		res.failed++
		return false
	}
	var fail error
	switch {
	case !out.committed:
		fail = fmt.Errorf("%s (%s) aborted on a conflict-free, fault-free stream", t.name, t.kind)
	case t.kind == kindRead:
		fail = s.checkReads(t, out.reads)
	}
	if fail != nil {
		res.failed++
		if res.firstFail == nil {
			res.firstFail = fail
		}
		return true
	}
	s.commit(t)
	res.samples = append(res.samples, sample{done: done.Sub(start), lat: done.Sub(from), kind: t.kind})
	return true
}

// perConn runs fn once per connection, each on its own goroutine — the
// only load goroutines the benchmark has — and merges the results.
func perConn(n int, fn func(conn int, res *loadResult)) *loadResult {
	results := make([]loadResult, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, &results[c])
		}(c)
	}
	wg.Wait()
	total := &loadResult{}
	for i := range results {
		total.merge(&results[i])
	}
	return total
}

// driveCount runs a fixed number of transactions per connection in a
// closed loop (warm-up, and the smoke test's tiny runs).
func driveCount(ports []port, streams []*stream, perConnTxns int) *loadResult {
	start := time.Now()
	return perConn(len(ports), func(c int, res *loadResult) {
		for i := 0; i < perConnTxns; i++ {
			if !step(ports[c], streams[c], res, start, time.Now()) {
				return
			}
		}
	})
}

// driveClosed runs each connection in a closed loop — the next
// transaction leaves when the previous one is answered — until the window
// ends. A transaction in flight at the end completes and is checked, but
// falls outside every slice.
func driveClosed(ports []port, streams []*stream, start time.Time, window time.Duration) *loadResult {
	end := start.Add(window)
	return perConn(len(ports), func(c int, res *loadResult) {
		for now := start; now.Before(end); now = time.Now() {
			if !step(ports[c], streams[c], res, start, now) {
				return
			}
		}
	})
}

// lateAfter is how far past its due time a send may leave before it
// counts in gen.late_share.
const lateAfter = time.Millisecond

// driveOpen sends on a fixed schedule: arrival i is due at start + i/rate
// whatever the servers do, and goes to connection i mod C. A connection
// whose previous transaction is still unanswered sends late; the latency
// of every transaction counts from its due time, so a stall is charged to
// each request it delays.
func driveOpen(ports []port, streams []*stream, start time.Time, window time.Duration, rate float64) *loadResult {
	arrivals := int(rate * window.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	conns := len(ports)
	return perConn(conns, func(c int, res *loadResult) {
		for i := c; i < arrivals; i += conns {
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if time.Since(due) > lateAfter {
				res.late++
			}
			if !step(ports[c], streams[c], res, start, due) {
				return
			}
		}
	})
}

// fund writes every stream's initial balances through one port.
func fund(p port, streams []*stream) error {
	for _, s := range streams {
		for _, c := range s.fundCalls() {
			out, err := p.exec(c)
			if err != nil {
				return fmt.Errorf("fund: %w", err)
			}
			if !out.committed {
				return fmt.Errorf("fund: %s aborted", c.name)
			}
		}
	}
	return nil
}
