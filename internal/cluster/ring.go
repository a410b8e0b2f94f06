// Package cluster turns mascd into a sharded multi-node deployment:
// a static-seed membership layer with HTTP heartbeats and
// suspect/dead failure detection, a consistent-hash ring (virtual
// nodes) partitioning process instances and VEP conversation state by
// ConversationID — the correlation key already stamped on every
// exchange — transparent request forwarding between nodes for
// exchanges that land on a non-owner, and a failover controller that
// promotes a WAL follower when a member dies.
//
// The design is deliberately coordination-free: the member set is
// seeded statically, every node runs the same failure detector over
// the same heartbeats, the ring hash is deterministic, and shard
// takeover on death follows a deterministic successor rule (the next
// live node in sorted-ID order), so all survivors converge on the
// same routing table without consensus. See docs/cluster.md for the
// protocol details and the failover semantics.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the per-member vnode count used when a Ring
// is built with a non-positive one. 128 vnodes keep the max/mean
// shard-load ratio within ~1.25 across small clusters (asserted by
// TestRingDistributionBounds).
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring over member IDs. Each member is
// hashed onto the ring at VirtualNodes points; a key is owned by the
// member whose vnode is the first at or clockwise of the key's hash.
// All methods are safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]bool
}

// ringPoint is one vnode: a position on the hash circle and the
// member that owns it.
type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring with the given per-member vnode count
// (DefaultVirtualNodes when vnodes <= 0) and initial members.
func NewRing(vnodes int, members ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
	for _, m := range members {
		r.Add(m)
	}
	return r
}

// ringHash is the ring's position function: FNV-1a over the literal
// bytes, pushed through a 64-bit avalanche finalizer (fmix64 from
// MurmurHash3) — raw FNV clusters badly on the ring for short keys
// with sequential suffixes, and a skewed circle breaks the shard-load
// bound. The function is stable across processes and Go versions,
// which is what makes coordination-free routing possible — every node
// computes the same owner for the same key.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member's vnodes. Adding a present member is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash: ringHash(node + "#" + strconv.Itoa(i)),
			node: node,
		})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Owner returns the member owning key (the first vnode at or
// clockwise of the key's hash). An empty ring owns nothing and
// returns "".
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Members returns the sorted member IDs currently on the ring.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Successor returns the next live member after node in sorted-ID
// order, wrapping around and skipping members named in skip — the
// deterministic takeover rule: when a member dies, its shard (and its
// replicated WAL) belongs to Successor(dead, deadSet). Every survivor
// evaluates the same rule over the same member list, so no election
// is needed. Returns "" when no other live member exists.
func Successor(members []string, node string, skip map[string]bool) string {
	live := make([]string, 0, len(members))
	for _, m := range members {
		if m != node && !skip[m] {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		return ""
	}
	sort.Strings(live)
	// The first live ID greater than node, wrapping to the smallest.
	for _, m := range live {
		if m > node {
			return m
		}
	}
	return live[0]
}
