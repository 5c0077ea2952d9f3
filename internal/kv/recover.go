package kv

import (
	"fmt"

	"lrp/internal/isa"
	"lrp/internal/lfds"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// The kv recovery walker rebuilds the shard index from a crash image
// and quarantines torn values. The hashmap is authoritative: a key is
// recovered live iff its bucket node is reachable and its value cell
// holds a record that revalidates (every record word is a pure
// function of (key, valId, n), so an unpersisted or torn record —
// zeroed words included — always fails). The per-tenant skiplists are
// superset indexes: a key present there but absent from the hashmap is
// the legitimate buffered state of a Set that crashed between its two
// publishes, exactly like the skip-list workload's volatile index
// levels, and is not an error.

// Name implements workload.Recoverable.
func (s *Store) Name() string { return "kv" }

// Recover implements workload.Recoverable: the hardened walk.
// Members maps globalKey → valId for every live, validated key.
func (s *Store) Recover(img *mm.Memory) *recovery.Report { return recovery.Walk(img, s) }

// unitsPerTenant is the number of walk units of each tenant: its index
// buckets, then its ordered level.
func (s *Store) unitsPerTenant() int {
	_, nbuckets := s.shards[0].idx.Buckets()
	return int(nbuckets) + 1
}

// Units implements recovery.Walker: every tenant's buckets and ordered
// level, tenant by tenant.
func (s *Store) Units() int { return len(s.shards) * s.unitsPerTenant() }

// WalkUnit implements recovery.Walker.
func (s *Store) WalkUnit(img *mm.Memory, rep *recovery.Report, u int) {
	per := s.unitsPerTenant()
	t, b := u/per, u%per
	if b == per-1 {
		recoverOrdered(img, rep, t, s.shards[t].ord)
		return
	}
	s.recoverBucket(img, rep, t, uint64(b))
}

// recoverBucket walks one bucket chain of tenant's index through the
// lfds cursor, which truncates the chain at a link it cannot follow.
// Convention violations quarantine the node and the walk continues
// through its link.
func (s *Store) recoverBucket(img *mm.Memory, rep *recovery.Report, tenant int, bucket uint64) {
	idx := s.shards[tenant].idx
	prev := uint64(0)
	c := idx.Bucket(img, rep, bucket)
	for c.Next() {
		key, val := c.Key, c.Val
		switch {
		case key == 0:
			rep.Quarantine(c.Node, "reachable node with uninitialized key")
		case c.Marked():
			// kv nodes are never logically deleted; a marked link is a
			// persist tear of the next word.
			rep.Quarantine(c.Node, "marked link in a kv index chain")
		case tenantOf(key) != tenant:
			rep.Quarantine(c.Node, fmt.Sprintf("key of tenant %d found in tenant %d's index", tenantOf(key), tenant))
		case idx.BucketOf(key) != bucket:
			rep.Quarantine(c.Node, fmt.Sprintf("key %d found in bucket %d, hashes to %d", key, bucket, idx.BucketOf(key)))
		case key <= prev:
			rep.Quarantine(c.Node, fmt.Sprintf("key order violated: %d after %d", key, prev))
		default:
			prev = key
			rep.Set.Nodes++
			switch {
			case val == Tombstone:
				// Deleted key: the node is healthy, the key is absent.
			case val == 0:
				rep.Quarantine(c.Node, fmt.Sprintf("key %d reachable with an uninitialized value cell", key))
			default:
				if id, reason := s.checkRecord(img, key, val); reason == "" {
					rep.Recovered(key, id)
				} else {
					rep.Quarantine(c.Node, fmt.Sprintf("key %d: torn value: %s", key, reason))
				}
			}
		}
	}
}

// checkRecord revalidates a value record against its pure-function
// layout, returning the valId and an empty reason on success.
func (s *Store) checkRecord(img *mm.Memory, key, rec uint64) (uint64, string) {
	addr := isa.Addr(rec)
	if !addr.Aligned() {
		return 0, "misaligned record pointer"
	}
	n := img.Read(addr + recWords)
	if n == 0 || n > MaxValWords {
		return 0, fmt.Sprintf("record length %d out of range", n)
	}
	id := img.Read(addr + recValID)
	if id == 0 {
		return 0, "record valId uninitialized"
	}
	if sum := img.Read(addr + recSum); sum != recChecksum(key, id, int(n)) {
		return 0, fmt.Sprintf("record checksum mismatch (got %#x)", sum)
	}
	for j := 0; j < int(n); j++ {
		if w := img.Read(addr + recData + isa.Addr(8*j)); w != payloadWord(key, id, j) {
			return 0, fmt.Sprintf("payload word %d torn", j)
		}
	}
	return id, ""
}

// recoverOrdered validates a tenant's ordered index through the cursor
// over its bottom level, which must be a sorted chain of intact nodes
// holding the DefaultVal convention. Membership is not taken from it —
// the hashmap decides — so entries for tombstoned or not-yet-published
// keys are expected.
func recoverOrdered(img *mm.Memory, rep *recovery.Report, tenant int, ord *lfds.SkipList) {
	prev := uint64(0)
	c := ord.Bottom(img, rep, "ordered-index ")
	for c.Next() {
		key := c.Key
		switch {
		case key == 0:
			rep.Quarantine(c.Node, "reachable ordered-index node with uninitialized key")
		case c.Val != recovery.DefaultVal(key):
			rep.Quarantine(c.Node, fmt.Sprintf("ordered-index value %d fails integrity convention for key %d", c.Val, key))
		case c.Height() == 0:
			rep.Quarantine(c.Node, "ordered-index node height 0")
		case tenantOf(key) != tenant:
			rep.Quarantine(c.Node, fmt.Sprintf("ordered-index key of tenant %d in tenant %d's index", tenantOf(key), tenant))
		case key <= prev:
			rep.Quarantine(c.Node, fmt.Sprintf("ordered-index order violated: %d after %d", key, prev))
		default:
			prev = key
		}
	}
}
