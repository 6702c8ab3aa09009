package estimate_test

import (
	"testing"

	"joinopt/internal/estimate"
)

// The adaptive protocol calls Estimate 8–12 times per run (pilot, both
// cross-validation halves of each side, checkpoints, finish rounds), so
// these per-call numbers set the estimator's share of a run.

func BenchmarkEstimate(b *testing.B) {
	obs := pilot8k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimate.Estimate(obs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossValidate(b *testing.B) {
	obs := pilot8k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimate.CrossValidate(obs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairSplit measures the finish loop's label-free stopping
// estimate on the 8k pilot observations: both sides fitted and their
// joined pairs split. separate is Estimate on each side followed by
// PairSplit; fused is EstimatePairSplit, which Env.achieved calls.
func BenchmarkPairSplit(b *testing.B) {
	obs := pilot8k(b)
	b.Run("separate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e1, err := estimate.Estimate(obs[0])
			if err != nil {
				b.Fatal(err)
			}
			e2, err := estimate.Estimate(obs[1])
			if err != nil {
				b.Fatal(err)
			}
			estimate.PairSplit(obs[0], obs[1], e1, e2)
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := estimate.EstimatePairSplit(obs[0], obs[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
