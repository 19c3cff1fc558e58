// Package cluster runs N vcached backends behind one coordinator: a
// consistent-hash ring routes single jobs by their canonical memoization
// key (so each backend's memoizer stays hot for its shard of the key
// space), sweeps are scattered across healthy backends and gathered back
// in input order, and an active health checker plus per-job failover
// keep a dying or draining backend from failing requests.
//
// The placement scheme is the paper's cache-mapping insight turned
// inward: like the prime-modulus address mapping that spreads strided
// vectors conflict-free across cache sets, the ring hashes keys into a
// prime-sized space (the Mersenne prime 2³¹−1) so that structured key
// populations — sweeps enumerate grids of specs and strides — cannot
// resonate with the ring geometry and pile onto one backend.
package cluster

import (
	"fmt"
	"sort"
	"strconv"

	"primecache/internal/keyspace"
)

// RingModulus is the size of the hash space: the Mersenne prime 2³¹−1,
// the same modulus family the simulated cache uses for set mapping.
const RingModulus = keyspace.Modulus

// Ring is an immutable consistent-hash ring over a set of backends.
// Each backend owns RingVirtualNodes points; a key belongs to the first
// point at or clockwise after its hash. Build once with NewRing —
// membership changes mean building a new ring, which keeps lookups
// lock-free.
type Ring struct {
	points   []ringPoint
	backends []string
}

type ringPoint struct {
	pos     uint32
	backend int // index into backends
}

// RingVirtualNodes is the per-backend point count: prime, so the
// point pattern of one backend cannot alias another's.
const RingVirtualNodes = 97

// NewRing builds a ring over the given backends (order does not matter;
// placement depends only on the name set).
func NewRing(backends []string) (*Ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one backend")
	}
	seen := make(map[string]bool, len(backends))
	r := &Ring{backends: append([]string(nil), backends...)}
	for i, b := range r.backends {
		if b == "" {
			return nil, fmt.Errorf("cluster: empty backend name")
		}
		if seen[b] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", b)
		}
		seen[b] = true
		for v := 0; v < RingVirtualNodes; v++ {
			pos := ringHash(b + "#" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{pos: pos, backend: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		// Colliding points order by backend name so the ring is
		// deterministic regardless of input order.
		return r.backends[r.points[i].backend] < r.backends[r.points[j].backend]
	})
	return r, nil
}

// ringHash maps a string into the prime-sized ring space. The math
// lives in keyspace.Hash so backend servers evaluate migration-range
// membership with exactly the hash the ring routes by.
func ringHash(s string) uint32 { return keyspace.Hash(s) }

// find returns the index of the first point at or after pos, wrapping.
func (r *Ring) find(pos uint32) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Primary returns the backend owning key.
func (r *Ring) Primary(key string) string {
	return r.backends[r.points[r.find(ringHash(key))].backend]
}

// Replicas returns up to n distinct backends for key, in ring order:
// the primary first, then the backends met walking clockwise — the
// failover sequence every coordinator retry follows, so a key's jobs
// always land on the same fallback when its primary dies.
func (r *Ring) Replicas(key string, n int) []string {
	if n <= 0 || n > len(r.backends) {
		n = len(r.backends)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	start := r.find(ringHash(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, r.backends[p.backend])
		}
	}
	return out
}

// ownerAt returns the backend owning ring position pos — Primary
// without the hashing, used by the migration-range walk.
func (r *Ring) ownerAt(pos uint32) string {
	return r.backends[r.points[r.find(pos)].backend]
}

// positions returns every point position on the ring, sorted ascending
// (duplicates possible on vnode collisions).
func (r *Ring) positions() []uint32 {
	out := make([]uint32, len(r.points))
	for i, p := range r.points {
		out[i] = p.pos
	}
	return out
}

// Has reports whether backend is a ring member.
func (r *Ring) Has(backend string) bool {
	for _, b := range r.backends {
		if b == backend {
			return true
		}
	}
	return false
}

// Backends returns the member set (in construction order).
func (r *Ring) Backends() []string { return append([]string(nil), r.backends...) }

// Points returns the number of virtual-node points on the ring.
func (r *Ring) Points() int { return len(r.points) }

// VirtualNodes returns the per-backend point count.
func (r *Ring) VirtualNodes() int { return RingVirtualNodes }
