package explore

import (
	"fmt"
	"sort"

	"speccat/internal/sim"
)

// Tally sums the outcomes of one engine configuration (an experiment
// "arm") over a seed sweep.
type Tally struct {
	// Seeds is the number of schedules swept.
	Seeds int
	// Committed, Aborted and Undecided sum workload outcomes; the setup
	// transaction, which always commits, is excluded once per seed.
	Committed int
	Aborted   int
	Undecided int
	// Syncs sums the batched journal syncs and Ticks the simulated time
	// consumed.
	Syncs int
	Ticks sim.Time
	// Stalls counts the seeds whose run violated the progress oracle.
	Stalls int
	// Violated lists the distinct oracle names that failed anywhere in the
	// sweep, sorted (empty for a correct arm).
	Violated []string
}

// CommitsPerKTick is the arm's throughput: committed transactions per
// 1000 simulated ticks.
func (t Tally) CommitsPerKTick() float64 {
	if t.Ticks == 0 {
		return 0
	}
	return float64(t.Committed) / float64(t.Ticks) * 1000
}

// SeedRange returns the n consecutive seeds starting at first.
func SeedRange(first int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = first + int64(i)
	}
	return seeds
}

// Sweep runs mk's schedule for every seed (i is the seed's index, for arms
// that rotate a fault with it) and tallies the outcomes.
func Sweep(seeds []int64, mk func(i int, seed int64) Schedule) (Tally, error) {
	t := Tally{Seeds: len(seeds)}
	violated := map[string]bool{}
	for i, seed := range seeds {
		res, err := Run(mk(i, seed))
		if err != nil {
			return Tally{}, fmt.Errorf("explore: sweep seed %d: %w", seed, err)
		}
		t.Committed += res.Stats.Committed - 1
		t.Aborted += res.Stats.Aborted
		t.Undecided += res.Stats.Undecided
		t.Syncs += res.Stats.Syncs
		t.Ticks += res.Stats.End
		for _, o := range res.ViolatedOracles() {
			violated[o] = true
			if o == OracleProgress {
				t.Stalls++
			}
		}
	}
	for o := range violated {
		t.Violated = append(t.Violated, o)
	}
	sort.Strings(t.Violated)
	return t, nil
}
