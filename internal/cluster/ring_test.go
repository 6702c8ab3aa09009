package cluster

import (
	"fmt"
	"testing"
)

// syntheticKeys mimics the shape of real workload keys (cacheNamespace
// output) so the balance bound is measured on what the ring will actually
// hash, not on random strings.
func syntheticKeys(n int) []string {
	rels := []string{"HQ-EX", "HQ-MG", "EX-MG", "q_HQ-EX-MG_j0.1_j1.2"}
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		keys = append(keys, fmt.Sprintf("%s_n%d-0_s%d_k%d", rels[i%len(rels)], 100+i*7, i%29, (i%3)*10))
	}
	return keys
}

func members(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return ms
}

// TestRingBalance pins the load-balance property that justifies the
// SplitMix64 finalizer in ringHash: at 64 vnodes, no member's share of a
// large key population exceeds twice any other's, for fleets from 2 to 8.
// (Raw FNV-1a on sequential vnode labels measured up to 19x.)
func TestRingBalance(t *testing.T) {
	keys := syntheticKeys(20000)
	for n := 2; n <= 8; n++ {
		r, err := NewRing(members(n), 64)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, k := range keys {
			counts[r.OwnerAmong(k, nil)]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d members own keys", n, len(counts))
		}
		min, max := len(keys), 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if ratio := float64(max) / float64(min); ratio > 2.0 {
			t.Errorf("n=%d: max/min ownership ratio %.2f > 2.0 (min=%d max=%d)", n, ratio, min, max)
		}
	}
}

// TestRingMinimalMovement checks the property consistent hashing exists
// for: adding a member moves keys only TO the joiner (about 1/n of them),
// and removing it moves exactly those keys back — nothing else shuffles.
func TestRingMinimalMovement(t *testing.T) {
	keys := syntheticKeys(10000)
	base := members(4)
	joiner := "http://10.0.0.99:8080"

	small, err := NewRing(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRing(append(append([]string(nil), base...), joiner), 64)
	if err != nil {
		t.Fatal(err)
	}

	moved := 0
	for _, k := range keys {
		before, after := small.OwnerAmong(k, nil), big.OwnerAmong(k, nil)
		if before == after {
			continue
		}
		moved++
		if after != joiner {
			t.Fatalf("key %q moved %s → %s, not to the joiner", k, before, after)
		}
	}
	// Ideal share is 1/5 of the keys; allow generous slack around it but
	// fail on wholesale reshuffling (or a joiner that got nothing).
	if frac := float64(moved) / float64(len(keys)); frac < 0.10 || frac > 0.35 {
		t.Errorf("join moved %.1f%% of keys; want roughly the joiner's fair share (20%%)", frac*100)
	}

	// Leave = the same comparison in reverse: the big ring with the joiner
	// filtered out must agree with the small ring everywhere.
	notJoiner := func(m string) bool { return m != joiner }
	for _, k := range keys {
		if got, want := big.OwnerAmong(k, notJoiner), small.OwnerAmong(k, nil); got != want {
			t.Fatalf("key %q: owner after leave %s, want %s", k, got, want)
		}
	}
}

// TestRingOwnershipGolden pins ringHash and the vnode label format: every
// replica must compute the identical ring from the same peer list, so a
// change to either is a cluster-wide flag day and must show up here.
func TestRingOwnershipGolden(t *testing.T) {
	r, err := NewRing([]string{
		"http://127.0.0.1:9001",
		"http://127.0.0.1:9002",
		"http://127.0.0.1:9003",
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{
		"HQ-EX_n1000-0_s1_k0":                       "http://127.0.0.1:9002",
		"HQ-EX_n1500-0_s21_k0":                      "http://127.0.0.1:9002",
		"HQ-MG_n1000-0_s1_k0":                       "http://127.0.0.1:9003",
		"EX-MG_n2000-0_s7_k10":                      "http://127.0.0.1:9003",
		"q_HQ-EX-MG_j0.1_j1.2_n1000-0_s1_k0":        "http://127.0.0.1:9002",
		"HQ-EX_n500-0_s21_k0":                       "http://127.0.0.1:9003",
		"MG-MG_n800-800_s3_k0":                      "http://127.0.0.1:9003",
		"q_HQ-EX-HQ-EX_j0.1_j1.2_j2.3_n400-0_s5_k0": "http://127.0.0.1:9003",
	}
	for key, want := range golden {
		if got := r.OwnerAmong(key, nil); got != want {
			t.Errorf("Owner(%q) = %s, want %s (ring hash or vnode label format changed: flag day)", key, got, want)
		}
	}
}

// TestRingSuccessor checks the invariant the migration design leans on:
// Successor(key) is exactly who Owner(key) becomes once the current owner
// is ineligible — so replicating checkpoints to the successor places them
// on the replica that will inherit the job.
func TestRingSuccessor(t *testing.T) {
	r, err := NewRing(members(5), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range syntheticKeys(2000) {
		owner := r.OwnerAmong(k, nil)
		succ := r.Successor(k, nil)
		if succ == owner {
			t.Fatalf("key %q: successor == owner (%s)", k, owner)
		}
		inherited := r.OwnerAmong(k, func(m string) bool { return m != owner })
		if succ != inherited {
			t.Fatalf("key %q: successor %s but owner-after-death %s", k, succ, inherited)
		}
	}

	// A single-member ring has no successor to replicate to.
	solo, err := NewRing(members(1), 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := solo.Successor("HQ-EX_n1000-0_s1_k0", nil); got != "" {
		t.Errorf("single-member successor = %q, want empty", got)
	}
}

// TestRingDeterminism: member order at construction is irrelevant.
func TestRingDeterminism(t *testing.T) {
	ms := members(4)
	r1, err := NewRing(ms, 64)
	if err != nil {
		t.Fatal(err)
	}
	rev := []string{ms[3], ms[1], ms[0], ms[2]}
	r2, err := NewRing(rev, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range syntheticKeys(1000) {
		if r1.OwnerAmong(k, nil) != r2.OwnerAmong(k, nil) {
			t.Fatalf("key %q: owner differs by construction order", k)
		}
	}
}

func TestNewRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 64); err == nil {
		t.Error("empty member list: want error")
	}
	if _, err := NewRing([]string{"a", "a"}, 64); err == nil {
		t.Error("duplicate member: want error")
	}
	if _, err := NewRing([]string{"a"}, 0); err == nil {
		t.Error("zero vnodes: want error")
	}
}
