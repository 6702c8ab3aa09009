package main

import (
	"strings"
	"sync"

	"joinopt"
	"joinopt/internal/service"
)

// fingerprint is what the output check compares: the plans executed, the
// good and bad join tuples, and the cache-invariant model time
// (Time + ΣCacheSaved). Optimize jobs carry the chosen plan and its
// estimates instead.
type fingerprint struct {
	Plans     string
	Good, Bad float64
	Time      float64
}

// checker holds the first output of every (task, requirement) and checks
// later ones against it. Executions are deterministic, so any difference is
// a wrong result.
type checker struct {
	mu   sync.Mutex
	refs map[string]fingerprint
}

func newChecker() *checker { return &checker{refs: map[string]fingerprint{}} }

// match records fp as the reference when key has none yet and reports
// whether fp equals the reference.
func (c *checker) match(key string, fp fingerprint) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.refs[key]
	if !ok {
		c.refs[key] = fp
		return true
	}
	return ref == fp
}

func runFingerprint(res *joinopt.RunResult) fingerprint {
	plans := make([]string, len(res.Plans))
	for i, p := range res.Plans {
		plans[i] = p.String()
	}
	fp := fingerprint{Plans: strings.Join(plans, " | ")}
	if o := res.Outcome; o != nil {
		fp.Good, fp.Bad = float64(o.GoodTuples), float64(o.BadTuples)
		fp.Time = o.Time + o.CacheSaved[0] + o.CacheSaved[1]
	}
	return fp
}

func jobFingerprint(res *service.JobResult) fingerprint {
	fp := fingerprint{Plans: strings.Join(res.Plans, " | ")}
	if ev := res.Evaluation; ev != nil {
		fp.Good, fp.Bad, fp.Time = ev.EstimatedGood, ev.EstimatedBad, ev.EstimatedTime
		return fp
	}
	fp.Good, fp.Bad = float64(res.Good), float64(res.Bad)
	fp.Time = res.Time + res.CacheSaved[0] + res.CacheSaved[1]
	return fp
}
