package classifier_test

import (
	"testing"

	"joinopt/internal/classifier"
	"joinopt/internal/workload"
)

// BenchmarkTrainRules trains the Filtered Scan rule set the way every
// workload does (at most 12 rules of at most 2 terms, precision floor 0.5)
// on adaptive-8k's HQ training split: 8,000 documents, seed 1.
func BenchmarkTrainRules(b *testing.B) {
	w, err := workload.HQJoinEX(workload.Params{NumDocs: 8000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classifier.TrainRules(w.Train[0], w.Task[0], 12, 2, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
