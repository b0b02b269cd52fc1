package thesis

import (
	"testing"

	"speccat/internal/core/provesched"
)

// BenchmarkProve is the prover's per-layer number: the five corpus
// obligations discharged on one worker (elaboration done once, outside the
// timer), and each monolithic proof of E9 on its own.
func BenchmarkProve(b *testing.B) {
	env, err := CorpusWithoutProofs()
	if err != nil {
		b.Fatal(err)
	}
	obs, err := Obligations()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("corpus", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range (&provesched.Scheduler{Workers: 1}).Run(env, obs) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	for _, th := range []string{"Serialize", "CSM", "RBR"} {
		b.Run("mono/"+th, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ProveMonolithic(env, th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
