package kv

import (
	"fmt"

	"lrp/internal/isa"
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

// Structure implements workload.Recoverable.
func (s *Store) Structure() string { return "kv" }

// Recover implements workload.Recoverable: the hardened walk.
// Members maps globalKey → valId for every live, validated key.
func (s *Store) Recover(img *mm.Memory) *recovery.Report {
	rep := &recovery.Report{Structure: "kv", Set: &recovery.SetState{Members: map[uint64]uint64{}}}
	for t := range s.shards {
		s.recoverShard(img, rep, t)
	}
	return rep
}

const (
	ptrMask = ^uint64(3)
	markBit = 1
)

// maxWalkSteps bounds every chain walk so a corrupted image with a
// pointer cycle terminates instead of looping (recovery.maxSteps's
// counterpart, package-local because that bound is unexported).
var maxWalkSteps = 1 << 22

func (s *Store) recoverShard(img *mm.Memory, rep *recovery.Report, tenant int) {
	sh := &s.shards[tenant]
	base, nbuckets := sh.idx.Buckets()
	for b := uint64(0); b < nbuckets; b++ {
		cell := base + isa.Addr(b*recovery.BucketStride)
		s.recoverBucket(img, rep, tenant, b, cell, sh.idx.BucketOf)
	}
	s.recoverOrdered(img, rep, tenant, sh.ord.Head())
}

// recoverBucket walks one bucket chain in the reportChain idiom:
// convention violations quarantine the node and the walk continues
// through its next pointer; an unfollowable pointer truncates the
// chain and counts it abandoned.
func (s *Store) recoverBucket(img *mm.Memory, rep *recovery.Report, tenant int, bucket uint64, headCell isa.Addr, bucketOf func(uint64) uint64) {
	prev := uint64(0)
	ptr := img.Read(headCell)
	for steps := 0; ; steps++ {
		if steps > maxWalkSteps {
			quarantine(rep, headCell, "walk exceeded step bound (cycle?)")
			rep.Abandoned++
			return
		}
		node := isa.Addr(ptr & ptrMask)
		if node == 0 {
			return
		}
		if !node.Aligned() {
			quarantine(rep, node, "misaligned node pointer")
			rep.Abandoned++
			return
		}
		key := img.Read(node + 0)
		val := img.Read(node + 8)
		next := img.Read(node + 16)
		switch {
		case key == 0:
			quarantine(rep, node, "reachable node with uninitialized key")
		case next&markBit != 0:
			// kv nodes are never logically deleted; a marked link is a
			// persist tear of the next word.
			quarantine(rep, node, "marked link in a kv index chain")
		case tenantOf(key) != tenant:
			quarantine(rep, node, fmt.Sprintf("key of tenant %d found in tenant %d's index", tenantOf(key), tenant))
		case bucketOf(key) != bucket:
			quarantine(rep, node, fmt.Sprintf("key %d found in bucket %d, hashes to %d", key, bucket, bucketOf(key)))
		case key <= prev:
			quarantine(rep, node, fmt.Sprintf("key order violated: %d after %d", key, prev))
		default:
			prev = key
			rep.Set.Nodes++
			switch {
			case val == Tombstone:
				// Deleted key: the node is healthy, the key is absent.
			case val == 0:
				quarantine(rep, node, fmt.Sprintf("key %d reachable with an uninitialized value cell", key))
			default:
				if id, reason := s.checkRecord(img, key, val); reason == "" {
					rep.Set.Members[key] = id
				} else {
					quarantine(rep, node, fmt.Sprintf("key %d: torn value: %s", key, reason))
				}
			}
		}
		ptr = next
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

// recoverOrdered validates a tenant's ordered index: the bottom level
// must be a sorted chain of intact nodes holding the DefaultVal
// convention. Membership is not taken from it — the hashmap decides —
// so entries for tombstoned or not-yet-published keys are expected.
func (s *Store) recoverOrdered(img *mm.Memory, rep *recovery.Report, tenant int, head isa.Addr) {
	prev := uint64(0)
	ptr := img.Read(head) // level-0 cell
	for steps := 0; ; steps++ {
		if steps > maxWalkSteps {
			quarantine(rep, head, "ordered-index walk exceeded step bound (cycle?)")
			rep.Abandoned++
			return
		}
		node := isa.Addr(ptr & ptrMask)
		if node == 0 {
			return
		}
		if !node.Aligned() {
			quarantine(rep, node, "misaligned ordered-index node pointer")
			rep.Abandoned++
			return
		}
		key := img.Read(node + 0)
		val := img.Read(node + 8)
		height := img.Read(node + 16)
		next := img.Read(node + 24)
		switch {
		case key == 0:
			quarantine(rep, node, "reachable ordered-index node with uninitialized key")
		case val != recovery.DefaultVal(key):
			quarantine(rep, node, fmt.Sprintf("ordered-index value %d fails integrity convention for key %d", val, key))
		case height == 0:
			quarantine(rep, node, "ordered-index node height 0")
		case tenantOf(key) != tenant:
			quarantine(rep, node, fmt.Sprintf("ordered-index key of tenant %d in tenant %d's index", tenantOf(key), tenant))
		case key <= prev:
			quarantine(rep, node, fmt.Sprintf("ordered-index order violated: %d after %d", key, prev))
		default:
			prev = key
		}
		ptr = next
	}
}

func quarantine(rep *recovery.Report, node isa.Addr, reason string) {
	rep.Quarantined = append(rep.Quarantined, recovery.Corruption{
		Structure: rep.Structure, Node: node, Reason: reason,
	})
}
