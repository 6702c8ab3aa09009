// Package faults is a seedable, deterministic fault injector for the join
// execution substrate. It covers the three fallible interfaces an execution
// touches — document fetches (FaultyDB), retrieval streams (FaultyStrategy),
// and Filtered Scan classifier calls (FaultyClassifier) — and injects transient
// or permanent failures, stalls (injected latency), and truncated documents,
// all driven by per-operation fault specs from a single Profile.
//
// Determinism is the point: whether call n of a stream faults depends only
// on (profile seed, operation, side, n) — never on wall-clock time, global
// RNG state, or how calls on different streams interleave. Every failure
// path of the fault-tolerant executors is therefore reproducible under
// `go test -race`, and a replayed execution (see join.Replay) re-encounters
// exactly the faults of the original run.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Op identifies a fallible substrate operation.
type Op string

// The injectable operations.
const (
	OpFetch    Op = "fetch"    // document fetch from a database
	OpNext     Op = "next"     // retrieval-strategy pull
	OpClassify Op = "classify" // FS classifier decision
	OpTruncate Op = "truncate" // document truncation (degraded, not failed)
)

// Spec is the fault behaviour of one operation on one side.
type Spec struct {
	// Prob is the per-call probability that a fault fires.
	Prob float64
	// Burst is the number of consecutive faulted calls once a fault fires
	// (values below 1 mean 1): a burst longer than the executors' retry
	// budget turns a recoverable blip into a lost document.
	Burst int
	// Permanent marks this operation's faults as non-transient: retries can
	// never succeed, so executors give up immediately.
	Permanent bool
	// ExtraCost is cost-model time charged per faulted or stalled call — the
	// latency of a timeout or a slow response.
	ExtraCost float64
	// StallProb is the per-call probability of a stall: the call succeeds
	// but is charged ExtraCost anyway (slow interface, no error).
	StallProb float64
}

func (s Spec) enabled() bool { return s.Prob > 0 || s.StallProb > 0 }

// Profile bundles the fault specs of every operation on both sides, plus
// the seed all injection streams derive from.
type Profile struct {
	Seed     int64
	Fetch    [2]Spec
	Next     [2]Spec
	Classify [2]Spec
	Truncate [2]Spec
	Disk     DiskSpec
}

// Uniform returns a profile injecting transient single-call faults at rate
// p on every fetch, next, and classify operation of both sides.
func Uniform(seed int64, p float64) *Profile {
	pr := &Profile{Seed: seed}
	spec := Spec{Prob: p, Burst: 1}
	for i := 0; i < 2; i++ {
		pr.Fetch[i] = spec
		pr.Next[i] = spec
		pr.Classify[i] = spec
	}
	return pr
}

// Zero reports whether the profile injects nothing: wrapping with a zero
// profile is provably transparent (see the join package's property test).
func (p *Profile) Zero() bool {
	for i := 0; i < 2; i++ {
		if p.Fetch[i].enabled() || p.Next[i].enabled() || p.Classify[i].enabled() || p.Truncate[i].enabled() {
			return false
		}
	}
	return !p.Disk.enabled()
}

// parseKeys lists every key Parse accepts, in documentation order. It feeds
// both the unknown-key error and FlagHelp so the two can never drift apart.
var parseKeys = []string{"seed", "rate", "fetch", "next", "classify", "trunc", "stall", "cost", "burst", "permanent", "dwrite", "dsync", "dcorrupt"}

// FlagHelp is the canonical help text for a -faults flag wired to Parse.
// Every CLI exposing the knob uses it verbatim, so the accepted vocabulary
// is documented identically everywhere.
var FlagHelp = "fault-injection profile: comma-separated key=value pairs with keys " +
	strings.Join(parseKeys, ", ") +
	", e.g. rate=0.05,seed=9,burst=2 (empty = none)"

// Parse builds a profile from a compact flag string of comma-separated
// key=value pairs:
//
//	rate=0.05,seed=9,burst=2,stall=0.01,trunc=0.02,cost=2,permanent=true
//
// rate sets the fault probability of fetch, next, and classify on both
// sides; fetch=, next=, and classify= override it per operation. trunc is
// the document-truncation probability, cost the injected latency per
// faulted or stalled call, and permanent switches faults from transient to
// permanent. dwrite, dsync, and dcorrupt set the durable-layer disk fault
// probabilities (write/rename failures, fsync failures, silent bit rot on
// read-back). An empty string returns nil (no injection).
//
// Parse, the one entry point for flags and job specs, rejects every profile
// a run cannot finish under or bill: NaN or infinite values, probabilities
// outside [0, 1], a negative cost, and a transient next or classify
// probability of 1. Each error names the offending key.
func Parse(s string) (*Profile, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	p := &Profile{}
	var rate, fetch, next, classify, trunc, stall, cost float64
	var dwrite, dsync, dcorrupt float64
	fetch, next, classify = -1, -1, -1
	probs := map[string]*float64{"rate": &rate, "fetch": &fetch, "next": &next, "classify": &classify,
		"trunc": &trunc, "stall": &stall, "dwrite": &dwrite, "dsync": &dsync, "dcorrupt": &dcorrupt}
	burst := 1
	permanent := false
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("faults: malformed profile entry %q (want key=value, keys: %s)", strings.TrimSpace(kv), strings.Join(parseKeys, ", "))
		}
		key, val := parts[0], parts[1]
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "cost":
			cost, err = parseIn(val, math.Inf(1))
		case "burst":
			burst, err = strconv.Atoi(val)
		case "permanent":
			permanent, err = strconv.ParseBool(val)
		default:
			prob := probs[key]
			if prob == nil {
				return nil, fmt.Errorf("faults: unknown profile key %q (accepted keys: %s)", key, strings.Join(parseKeys, ", "))
			}
			*prob, err = parseIn(val, 1)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: bad value %q for profile key %q: %v", val, key, err)
		}
	}
	pick := func(override float64) float64 {
		if override >= 0 {
			return override
		}
		return rate
	}
	// A transient next or classify fault fires before the stream advances,
	// so a retry resumes in place: at probability 1 the executor retries
	// the same position forever.
	ops := [2]string{"next", "classify"}
	for i, override := range [2]float64{next, classify} {
		key := ops[i]
		if override < 0 {
			key = "rate"
		}
		if !permanent && pick(override) == 1 {
			return nil, fmt.Errorf("faults: profile key %q makes every %s call fail transiently, so a run retries it forever (use a probability below 1, or permanent=true)", key, ops[i])
		}
	}
	for i := 0; i < 2; i++ {
		p.Fetch[i] = Spec{Prob: pick(fetch), Burst: burst, Permanent: permanent, ExtraCost: cost, StallProb: stall}
		p.Next[i] = Spec{Prob: pick(next), Burst: burst, Permanent: permanent, ExtraCost: cost, StallProb: stall}
		p.Classify[i] = Spec{Prob: pick(classify), Burst: burst, Permanent: permanent, ExtraCost: cost, StallProb: stall}
		p.Truncate[i] = Spec{Prob: trunc, Burst: 1, ExtraCost: cost}
	}
	p.Disk = DiskSpec{
		Write:   Spec{Prob: dwrite, Burst: burst, Permanent: permanent},
		Sync:    Spec{Prob: dsync, Burst: burst, Permanent: permanent},
		Corrupt: Spec{Prob: dcorrupt, Burst: 1},
	}
	return p, nil
}

// parseIn parses a finite float in [0, hi]. NaN or ±Inf would poison every
// cost-model time they reach, and encoding/json cannot encode them.
func parseIn(val string, hi float64) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err == nil && (math.IsInf(v, 0) || !(v >= 0 && v <= hi)) {
		err = fmt.Errorf("want a finite number in [0, %g]", hi)
	}
	return v, err
}

// Error is an injected substrate failure.
type Error struct {
	Op   Op
	Side int // 0 or 1
	Call int // position in the operation's injection stream
	// Transient failures succeed on retry once the burst clears; permanent
	// ones never do.
	Transient bool
}

// Error implements error.
func (e *Error) Error() string {
	kind := "transient"
	if !e.Transient {
		kind = "permanent"
	}
	return fmt.Sprintf("faults: injected %s %s failure (side %d, call %d)", kind, e.Op, e.Side+1, e.Call)
}

// Temporary implements the net-style temporariness convention the join
// executors' retry policy consults: only temporary failures are retried.
func (e *Error) Temporary() bool { return e.Transient }

// Counts is the observable injected behaviour of one wrapper so far.
type Counts struct {
	Faults    int     // calls that returned an injected error
	Stalls    int     // successful calls charged injected latency
	Truncated int     // documents returned with truncated text
	ExtraCost float64 // total injected cost-model time
}

// mix64 is the SplitMix64 finalizer — a cheap, well-distributed 64-bit
// mixer. Fault decisions hash through it instead of consuming a stateful
// RNG so that a stream's nth decision is a pure function of (seed, op,
// side, n).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// streamSeed derives the injection-stream identity of (profile seed, op,
// side).
func streamSeed(seed int64, op Op, side int) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset
	for _, b := range []byte(op) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return mix64(uint64(seed)) ^ mix64(h+uint64(side)*0x9e3779b97f4a7c15)
}

// u01 maps (stream, call, salt) to a uniform draw in [0, 1).
func u01(stream uint64, call int, salt uint64) float64 {
	h := mix64(stream ^ mix64(uint64(call)*0x9e3779b97f4a7c15+salt))
	return float64(h>>11) / float64(uint64(1)<<53)
}

// injector is one deterministic fault stream. The only mutable state is the
// call counter and the remaining burst length, both functions of the
// stream's own call history — never of other streams.
type injector struct {
	spec      Spec
	stream    uint64
	call      int
	burstLeft int
	counts    Counts
}

func newInjector(seed int64, op Op, side int, spec Spec) injector {
	return injector{spec: spec, stream: streamSeed(seed, op, side)}
}

// decision is the injector's verdict for one call.
type decision struct {
	fault     bool
	permanent bool
	cost      float64
	call      int
}

// next advances the stream by one call and returns its verdict.
func (in *injector) next() decision {
	d := decision{call: in.call}
	n := in.call
	in.call++
	if in.burstLeft > 0 {
		in.burstLeft--
		d.fault = true
	} else if in.spec.Prob > 0 && u01(in.stream, n, 1) < in.spec.Prob {
		d.fault = true
		if in.spec.Burst > 1 {
			in.burstLeft = in.spec.Burst - 1
		}
	}
	if d.fault {
		d.permanent = in.spec.Permanent
		d.cost = in.spec.ExtraCost
		in.counts.Faults++
		in.counts.ExtraCost += d.cost
		return d
	}
	if in.spec.StallProb > 0 && u01(in.stream, n, 2) < in.spec.StallProb {
		d.cost = in.spec.ExtraCost
		in.counts.Stalls++
		in.counts.ExtraCost += d.cost
	}
	return d
}
