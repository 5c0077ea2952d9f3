package lfds

import (
	"fmt"

	"lrp/internal/isa"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// HashMap is Michael's lock-free hash table (SPAA'02): a fixed array of
// buckets, each an independent lock-free sorted list. The bucket array
// lives in the static region; it is written once at construction and
// never resized, so only the per-bucket lists carry persistency traffic.
// Bucket head cells are padded to one cache line each so that operations
// on different buckets never contend on a line — the standard layout for
// concurrent hash tables, and essential here because every insert/delete
// release-CASes its bucket's head cell.
type HashMap struct {
	buckets  isa.Addr
	nbuckets uint64
}

// BucketStride is the byte distance between consecutive bucket cells.
const BucketStride = isa.LineSize

// NewHashMap builds a table with nbuckets buckets (rounded up to a power
// of two, minimum 1).
func NewHashMap(sys *memsys.System, nbuckets int) *HashMap {
	n := uint64(1)
	for n < uint64(nbuckets) {
		n <<= 1
	}
	return &HashMap{
		buckets:  sys.StaticAlloc(int(n) * isa.WordsPerLine),
		nbuckets: n,
	}
}

// hash spreads keys over buckets (Fibonacci hashing; deterministic).
func (h *HashMap) hash(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> 1 % h.nbuckets
}

func (h *HashMap) bucket(key uint64) sortedList {
	return sortedList{head: h.cell(h.hash(key))}
}

// cell is the address of bucket b's head cell.
func (h *HashMap) cell(b uint64) isa.Addr { return h.buckets + isa.Addr(b*BucketStride) }

// Name implements Set.
func (h *HashMap) Name() string { return "hashmap" }

// Insert implements Set.
func (h *HashMap) Insert(c *memsys.Ctx, key, val uint64) bool {
	b := h.bucket(key)
	return b.insert(c, key, val)
}

// Delete implements Set.
func (h *HashMap) Delete(c *memsys.Ctx, key uint64) bool {
	b := h.bucket(key)
	return b.delete(c, key)
}

// Contains implements Set.
func (h *HashMap) Contains(c *memsys.Ctx, key uint64) bool {
	b := h.bucket(key)
	return b.contains(c, key)
}

// FindNode returns the address of key's node, or 0 if absent. The kv
// store uses it to reach a key's value cell for in-place release-CAS
// updates.
func (h *HashMap) FindNode(c *memsys.Ctx, key uint64) uint64 {
	b := h.bucket(key)
	return b.findNode(c, key)
}

// InsertNode inserts a node for key with the given initial value word
// and returns it, or returns the existing node (inserted = false). On
// insertion the publish CAS is the linearization point and has already
// been recorded with Ctx.Linearize; on a duplicate no linearization is
// recorded and the caller owns the op's linearization point.
func (h *HashMap) InsertNode(c *memsys.Ctx, key, val uint64) (node uint64, inserted bool) {
	b := h.bucket(key)
	return b.insertNode(c, key, val)
}

// NodeValCell returns the address of a list/bucket node's value word.
func NodeValCell(node uint64) isa.Addr { return addr(node) + nodeVal }

// Buckets exposes the bucket array base and count.
func (h *HashMap) Buckets() (isa.Addr, uint64) { return h.buckets, h.nbuckets }

// BucketOf exposes the bucket index a key hashes to.
func (h *HashMap) BucketOf(key uint64) uint64 { return h.hash(key) }

// Bucket is a recovery cursor over bucket b's chain in a crash image.
func (h *HashMap) Bucket(img *mm.Memory, rep *recovery.Report, b uint64) Chain {
	return newChain(img, rep, h.cell(b), nodeNext, "")
}

// Recover implements Set: the hardened null-recovery walk of the table
// in a crash image. Corrupt buckets are quarantined individually;
// healthy buckets recover in full.
func (h *HashMap) Recover(img *mm.Memory) *recovery.Report {
	rep := recovery.NewSetReport(h.Name())
	var misplaced []uint64
	for b := uint64(0); b < h.nbuckets; b++ {
		misplaced = recoverSorted(img, rep, h.cell(b), h, b, misplaced[:0])
		// A key in the wrong bucket is quarantined at the bucket cell,
		// after the bucket's other findings and in key order.
		for _, k := range misplaced {
			rep.Quarantine(h.cell(b), fmt.Sprintf("key %d found in bucket %d, hashes to %d", k, b, h.hash(k)))
		}
	}
	return rep
}
