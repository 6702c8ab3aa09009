package stat

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// lgammaCacheSize bounds the memoized log-factorial table. Corpus sizes in
// this repository stay well below this.
const lgammaCacheSize = 1 << 20

// logFactTable holds an immutable prefix of ln(n!) values; growth publishes
// a fresh slice, so concurrent readers (parallel plan evaluation and the
// experiment sweeps call into the distributions from many goroutines) never
// observe a partially built table.
var logFactTable atomic.Pointer[[]float64]

var logFactMu sync.Mutex

// logFact returns ln(n!) using a memoized table for small n and math.Lgamma
// beyond it.
func logFact(n int) float64 {
	if n < 0 {
		panic(fmt.Sprintf("stat: logFact of negative %d", n))
	}
	if n >= lgammaCacheSize {
		v, _ := math.Lgamma(float64(n) + 1)
		return v
	}
	if t := logFactTable.Load(); t != nil && n < len(*t) {
		return (*t)[n]
	}
	logFactMu.Lock()
	defer logFactMu.Unlock()
	var old []float64
	if t := logFactTable.Load(); t != nil {
		if n < len(*t) {
			return (*t)[n]
		}
		old = *t
	}
	grown := make([]float64, n+1)
	copy(grown, old)
	for k := len(old); k <= n; k++ {
		if k == 0 {
			grown[0] = 0
			continue
		}
		grown[k] = grown[k-1] + math.Log(float64(k))
	}
	logFactTable.Store(&grown)
	return grown[n]
}

// LogChoose returns ln(C(n, k)), or math.Inf(-1) when the coefficient is
// zero (k < 0 or k > n).
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return logFact(n) - logFact(k) - logFact(n-k)
}

// BinomialPMF returns Bnm(n, k, p) = C(n,k) p^k (1-p)^(n-k), the probability
// of k successes in n independent trials with success probability p.
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lp)
}

// Binomial draws a binomial variate. For large n it uses a normal
// approximation with continuity correction, clamped to [0, n]; exact
// Bernoulli summation is used for small n.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	k := int(math.Round(mean + sd*r.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// HypergeometricPMF returns Hyper(D, S, g, k) = C(g,k)·C(D-g, S-k)/C(D,S):
// the probability of seeing k marked items when drawing S items without
// replacement from a population of D items of which g are marked. This is
// the sampling distribution the paper uses to model document retrieval
// strategies exploring the good documents of a database.
func HypergeometricPMF(D, S, g, k int) float64 {
	if D < 0 || S < 0 || S > D || g < 0 || g > D {
		return 0
	}
	if k < 0 || k > g || S-k > D-g || S-k < 0 {
		return 0
	}
	lp := LogChoose(g, k) + LogChoose(D-g, S-k) - LogChoose(D, S)
	return math.Exp(lp)
}

// Hypergeometric draws a hypergeometric variate by sequential sampling.
func (r *RNG) Hypergeometric(D, S, g int) int {
	if D <= 0 || S <= 0 || g <= 0 {
		return 0
	}
	if S > D {
		S = D
	}
	// Sequential draw: at each step the probability of a marked item is
	// remaining-marked / remaining-total.
	marked := g
	total := D
	k := 0
	for i := 0; i < S; i++ {
		if r.Float64() < float64(marked)/float64(total) {
			k++
			marked--
		}
		total--
		if marked == 0 {
			break
		}
	}
	return k
}
