package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is the per-replica point count on the hash ring: enough
// that a 3-replica ring splits keys within a few percent of evenly.
const virtualNodes = 64

// Ring is the router's preference order: a consistent-hash ring with
// virtual nodes, keyed by the program fingerprint. Identical programs land
// on the same replica, so the per-replica caches and corpus shards split
// the keyspace instead of duplicating it. Walking clockwise from the key's
// hash yields the preference order (and so the failover order), and
// removing a replica only remaps the keys it owned — the property that
// keeps the sharded cache warm through membership churn.
type Ring struct {
	replicas []*Replica
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int // index into replicas
}

// NewRing builds a ring with virtualNodes points per replica.
func NewRing(replicas []*Replica) *Ring {
	r := &Ring{replicas: replicas}
	for i, rep := range replicas {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", rep.Name, v)),
				replica: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break by replica index so the walk order is deterministic
		// even on (astronomically unlikely) hash collisions.
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

// Sequence walks the ring clockwise from the key's hash, returning each
// distinct replica in first-encountered order.
func (r *Ring) Sequence(key string) []*Replica {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= hash64(key)
	})
	seq := make([]*Replica, 0, len(r.replicas))
	seen := make([]bool, len(r.replicas))
	for i := 0; i < len(r.points) && len(seq) < len(r.replicas); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			seq = append(seq, r.replicas[p.replica])
		}
	}
	return seq
}

func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	// FNV of short, nearly identical strings ("r1#0", "r1#1", ...) lands
	// in clusters; a splitmix64 finalizer avalanches the bits so the ring
	// points spread evenly.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
