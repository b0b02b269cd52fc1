// Command banking runs the paper's motivating scenario — money transfers
// between accounts stored at different sites — on the full executable
// stack: strict two-phase locking and undo/redo logging at each site,
// distributed execution per Fig. 3.1, atomic commitment via non-blocking
// 3PC, and a mid-run site crash with roll-back recovery. The invariant
// printed at the end is conservation of the total balance.
package main

import (
	"fmt"
	"os"

	"speccat/internal/tpc"
	"speccat/internal/txn"
	"speccat/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "banking:", err)
		os.Exit(1)
	}
}

func run() error {
	const sites = 4
	cluster, err := txn.NewCluster(2026, sites, tpc.Config{})
	if err != nil {
		return err
	}
	gen := workload.New(workload.Config{
		Kind:           workload.Transfers,
		Accounts:       12,
		InitialBalance: 100,
		Transactions:   40,
		Seed:           7,
	}, cluster.SiteFor)

	submit := func(name string, ops []txn.Op) (tpc.Decision, error) {
		var res *txn.Result
		if err := cluster.Master.Submit(name, ops, func(r *txn.Result) { res = r }); err != nil {
			return tpc.DecisionNone, err
		}
		cluster.Run()
		if res == nil {
			return tpc.DecisionNone, fmt.Errorf("transaction %s did not complete", name)
		}
		return res.Decision, nil
	}

	fmt.Printf("seeding %d accounts × %d across %d sites\n", 12, 100, sites)
	if d, err := submit("setup", gen.SetupOps()); err != nil || d != tpc.DecisionCommit {
		return fmt.Errorf("setup failed: %w (%s)", err, d)
	}

	ledger := workload.NewLedger(gen)
	committed, aborted := 0, 0
	crashPlanned := true
	victim := cluster.SiteIDs[1]

	for i, wt := range gen.Generate() {
		if !wt.IsTransfer {
			continue
		}
		// Crash one data site a third of the way in, recover it a few
		// transactions later.
		if crashPlanned && i == 13 {
			fmt.Printf("!! crashing site %d (volatile state lost, stable storage kept)\n", victim)
			if err := cluster.Net.Crash(victim); err != nil {
				return err
			}
			crashPlanned = false
		}
		if !crashPlanned && i == 17 {
			fmt.Printf("!! recovering site %d: rollback recovery from checkpoint + WAL replay\n", victim)
			if err := cluster.Net.Recover(victim); err != nil {
				return err
			}
		}

		ops, undo := ledger.Fill(wt, 10)
		d, err := submit(wt.Name, ops)
		if err != nil {
			return err
		}
		if d == tpc.DecisionCommit {
			committed++
		} else {
			aborted++
			undo()
		}
	}

	total := cluster.TotalOf(gen.AccountKeys())
	fmt.Printf("\ntransfers: %d committed, %d aborted (aborts expected while the site was down)\n", committed, aborted)
	fmt.Printf("total balance: %d (invariant: %d)\n", total, gen.Total())
	if total != gen.Total() {
		return fmt.Errorf("CONSERVATION VIOLATED: %d != %d", total, gen.Total())
	}
	fmt.Println("conservation invariant holds ✓")

	sent, delivered, dropped := cluster.Net.Stats()
	fmt.Printf("network: %d sent, %d delivered, %d dropped\n", sent, delivered, dropped)
	return nil
}
