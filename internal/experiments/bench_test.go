package experiments

import (
	"fmt"
	"testing"

	"speccat/internal/thesis"
)

// BenchmarkExperiments times the experiment bodies that have no per-layer
// driver in bench/ (E1, E2, E3, E7, the modular arm of E9, E10); every
// other experiment's cost is a bench/ metric. Run with
// `go test -run '^$' -bench . ./internal/experiments`.
func BenchmarkExperiments(b *testing.B) {
	env, err := thesis.CorpusWithoutProofs()
	if err != nil {
		b.Fatal(err)
	}
	for _, bm := range []struct {
		name string
		run  func() error
	}{
		{"E1_Table31_BuildingBlocks", func() error {
			rows, err := E1Table31(env)
			if err == nil && len(rows) != 12 {
				err = fmt.Errorf("rows = %d", len(rows))
			}
			return err
		}},
		{"E2_Fig34_SeqDivision1", func() error { _, err := E2SeqDivision1(env); return err }},
		{"E3_Fig35_SeqDivision2", func() error { _, err := E3SeqDivision2(env); return err }},
		{"E7_Fig32_ModelCheck3PC", func() error {
			rows, err := E7ModelCheck(2)
			if err == nil && (!rows[0].Atomic || rows[0].Blocking != 0) {
				err = fmt.Errorf("3PC model-check failed")
			}
			return err
		}},
		{"E9_Ablation_Modular", func() error {
			for _, prop := range thesis.GlobalProperties() {
				if _, err := thesis.ProveProperty(env, prop); err != nil {
					return err
				}
			}
			return nil
		}},
		{"E10_FailureInjection", func() error { _, err := E10FailureInjection(); return err }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bm.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
