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
