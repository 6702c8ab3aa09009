// Package cluster federates N joinoptd replicas into one logical service.
// Three pieces compose it: a consistent-hash ring (virtual nodes over the
// canonical workload key) that gives every workload one owner — the replica
// holding its trained machinery and warmed cache tiers; static peer-list
// membership with periodic /healthz probing and alive → suspect → down
// state transitions; and the standby/migration plumbing the service layer
// drives — checkpoint snapshots of running adaptive jobs are replicated to
// the replica that would inherit the workload, so a dead or draining owner's
// jobs resume elsewhere bit-identical to an uninterrupted run.
//
// The package deliberately has no consensus: the peer list is static
// configuration, identical on every replica, and the ring is a pure
// function of it — two replicas can disagree transiently about who is down,
// but never about who owns a key among the members they both consider up.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringHash hashes vnode labels and workload keys onto the ring. FNV-1a
// alone clusters badly on the near-identical strings vnode labels are
// ("…#17", "…#18"), so a SplitMix64 finalizer scrambles it; with 64 vnodes
// this keeps every member's key share within ~1.6x of fair for fleets up to
// 8 replicas (pinned by TestRingBalance). The function is part of the wire
// contract: every replica must compute identical rings, so changing it is a
// cluster-wide flag day (TestRingOwnershipGolden pins it).
func ringHash(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	x := f.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ringPoint is one virtual node: a position on the ring and the member it
// credits keys to.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring over a fixed member set. It is immutable
// after construction — membership changes are expressed at lookup time via
// the eligibility filter, not by rebuilding the ring, so "member X is down"
// moves exactly the keys X owned and nothing else.
type Ring struct {
	members []string // sorted, distinct
	points  []ringPoint
}

// NewRing builds a ring with vnodes virtual nodes per member. Members must
// be non-empty and distinct; they are sorted so every replica builds the
// identical ring from the same peer list regardless of flag order.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("cluster: vnodes must be >= 1, got %d", vnodes)
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate ring member %q", sorted[i])
		}
	}
	r := &Ring{members: sorted}
	r.points = make([]ringPoint, 0, len(sorted)*vnodes)
	for _, m := range sorted {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{ringHash(fmt.Sprintf("%s#%d", m, i)), m})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].member < r.points[b].member
	})
	return r, nil
}

// Members returns the sorted member list the ring was built over.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// OwnerAmong returns the first member clockwise from key whose eligible(m)
// is true (nil eligible admits every member). This is how membership folds
// into routing: pass "not down" and the keys of a dead member redistribute
// exactly as if it had been removed from the ring — every other ownership
// stays put. Returns "" when no member is eligible.
func (r *Ring) OwnerAmong(key string, eligible func(member string) bool) string {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for scanned := 0; scanned < len(r.points); scanned++ {
		p := r.points[(i+scanned)%len(r.points)]
		if eligible == nil || eligible(p.member) {
			return p.member
		}
	}
	return ""
}

// Successor returns the member that inherits key if its current owner
// leaves: the first member clockwise that is neither the owner nor
// ineligible. It is where a checkpoint must be replicated so the key's jobs
// survive the owner — by construction it IS OwnerAmong(key, eligible-minus-
// owner). Returns "" when the owner is the only eligible member.
func (r *Ring) Successor(key string, eligible func(member string) bool) string {
	owner := r.OwnerAmong(key, eligible)
	if owner == "" {
		return ""
	}
	return r.OwnerAmong(key, func(m string) bool {
		return m != owner && (eligible == nil || eligible(m))
	})
}
