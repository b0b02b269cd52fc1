package explore

import (
	"reflect"
	"sort"
	"testing"
)

// TestSweepSumsRuns: a Sweep is exactly the field-wise sum of the Runs it
// stands for — the setup transaction excluded once per seed, the violated
// oracles de-duplicated and sorted, a stall counted per seed that violated
// progress. One arm is clean and group-committed (so syncs are non-zero),
// the other is the fault-free cross-shard stall.
func TestSweepSumsRuns(t *testing.T) {
	seeds := []int64{1, 2}
	for name, mk := range map[string]func(int, int64) Schedule{
		"clean-grouped": func(_ int, seed int64) Schedule {
			return Schedule{Protocol: Proto3PC, Seed: seed, Workload: WorkloadCommutative}
		},
		"stalled": func(_ int, seed int64) Schedule { return opposedSpec(seed) },
	} {
		got, err := Sweep(seeds, mk)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Tally{Seeds: len(seeds)}
		violated := map[string]bool{}
		for i, seed := range seeds {
			res, err := Run(mk(i, seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			want.Committed += res.Stats.Committed - 1
			want.Aborted += res.Stats.Aborted
			want.Undecided += res.Stats.Undecided
			want.Syncs += res.Stats.Syncs
			want.Ticks += res.Stats.End
			if violates(res.Violations, OracleProgress) {
				want.Stalls++
			}
			for _, v := range res.Violations {
				violated[v.Oracle] = true
			}
		}
		for o := range violated {
			want.Violated = append(want.Violated, o)
		}
		sort.Strings(want.Violated)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Sweep = %+v, summed runs = %+v", name, got, want)
		}
		switch name {
		case "clean-grouped":
			if got.Committed == 0 || got.Syncs == 0 || len(got.Violated) != 0 {
				t.Errorf("clean arm is vacuous or dirty: %+v", got)
			}
		case "stalled":
			if got.Stalls != len(seeds) || !reflect.DeepEqual(got.Violated, []string{OracleProgress}) {
				t.Errorf("stalled arm: %+v, want a stall per seed and exactly [progress]", got)
			}
		}
	}
}

// TestSweepRotatesByIndex: mk sees each seed's index, so an arm can rotate
// a fault with it.
func TestSweepRotatesByIndex(t *testing.T) {
	var seen []int
	_, err := Sweep([]int64{7, 8, 9}, func(i int, seed int64) Schedule {
		seen = append(seen, i)
		return Schedule{Protocol: Proto3PC, Seed: seed, Txns: 2}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, []int{0, 1, 2}) {
		t.Fatalf("indices = %v", seen)
	}
}

// TestWitness: the search finds nothing on the correctly locked engine,
// and under the Underlock ablation returns a convicting seed whose
// repaired control is clean.
func TestWitness(t *testing.T) {
	seeds := SeedRange(0, 30)
	shape := func(underlock bool) func(int64) Schedule {
		return func(seed int64) Schedule {
			return Schedule{
				Protocol: Proto3PC, Seed: seed, Accounts: 4, Txns: 24,
				Workload: WorkloadCommutative, ZipfTheta: 1.2, WriteFraction: 0.4,
				Underlock: underlock,
			}
		}
	}
	repair := func(s *Schedule) { s.Underlock = false }
	w, err := Witness(seeds, shape(false), OracleSerializability, repair)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatalf("correctly locked engine convicted at seed %d: %s", w.Seed, w.Detail)
	}
	w, err = Witness(seeds, shape(true), OracleSerializability, repair)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("no underlocked seed was convicted")
	}
	if !w.ControlClean {
		t.Errorf("seed %d: repaired control was not clean", w.Seed)
	}
	if w.Detail == "" || !w.Schedule.Underlock || w.Schedule.Seed != w.Seed {
		t.Errorf("witness does not carry its ablated schedule and evidence: %+v", w)
	}
	found := false
	for _, o := range w.Violated {
		found = found || o == OracleSerializability
	}
	if !found {
		t.Errorf("witness violated %v, want serializability among them", w.Violated)
	}
}
