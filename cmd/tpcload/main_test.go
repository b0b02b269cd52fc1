package main

import (
	"strings"
	"testing"
	"time"
)

// TestPaceSchedule pins the open-loop schedule: ticket i carries
// start + i·interval and is never handed out before that instant.
func TestPaceSchedule(t *testing.T) {
	const n, interval = 20, time.Millisecond
	tickets := make(chan time.Time, n)
	start := time.Now()
	go pace(tickets, start, interval, n)
	i := 0
	for due := range tickets {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Fatalf("ticket %d due %v after start, want %v", i, due.Sub(start), want.Sub(start))
		}
		if early := time.Until(due); early > 0 {
			t.Fatalf("ticket %d handed out %v before it was due", i, early)
		}
		i++
	}
	if i != n {
		t.Fatalf("pacer issued %d tickets, want %d", i, n)
	}
}

// TestOpenLoopChargesQueueing drives a stub connection five times slower
// than the send interval. Timed from each ticket's due time the median
// grows with the backlog (call i finishes about 4i+5 ms after it was
// due); timed from dequeue — the defect this replaces — it would sit at
// the 5 ms service time, which is what the closed loop measures.
func TestOpenLoopChargesQueueing(t *testing.T) {
	const n, interval, service = 40, time.Millisecond, 5 * time.Millisecond
	slow := func(int) error { time.Sleep(service); return nil }

	tickets := make(chan time.Time, n)
	go pace(tickets, time.Now(), interval, n)
	var open, closed hist
	if err := timeOps(tickets, n, &open, slow); err != nil {
		t.Fatal(err)
	}
	if err := timeOps(nil, n, &closed, slow); err != nil {
		t.Fatal(err)
	}
	if open.Count() != n || closed.Count() != n {
		t.Fatalf("recorded %d open / %d closed calls, want %d each", open.Count(), closed.Count(), n)
	}
	// Call 20 of 40 is due at 20 ms and cannot finish before 105 ms.
	if p50 := open.Quantile(0.5); p50 < 10*service {
		t.Errorf("open-loop p50 %v: queueing behind a slow connection never reached the histogram", p50)
	}
	if p50 := closed.Quantile(0.5); p50 < service || p50 > 10*service {
		t.Errorf("closed-loop p50 %v, want about the %v service time", p50, service)
	}
}

// TestAuditSum: integer balances add (negative ones included); anything
// else is an error naming the audit transaction and the offending value.
func TestAuditSum(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reads   map[string]string
		want    int
		wantErr string
	}{
		{"numeric", map[string]string{"2/w0.a0": "90", "3/w0.a1": "110"}, 200, ""},
		{"negative", map[string]string{"2/w0.a0": "-30", "3/w0.a1": "230"}, 200, ""},
		{"no reads", map[string]string{}, 0, ""},
		{"empty value", map[string]string{"2/w0.a0": ""}, 0, `audit-w0: 2/w0.a0=""`},
		{"non-numeric", map[string]string{"2/w0.a0": "1e2"}, 0, `audit-w0: 2/w0.a0="1e2"`},
	} {
		got, err := auditSum("audit-w0", tc.reads)
		if tc.wantErr == "" {
			if err != nil || got != tc.want {
				t.Errorf("%s: auditSum = %d, %v; want %d", tc.name, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: auditSum error = %v, want one containing %s", tc.name, err, tc.wantErr)
		}
	}
}
