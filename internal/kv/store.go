package kv

import (
	"lrp/internal/isa"
	"lrp/internal/lfds"
	"lrp/internal/memsys"
	"lrp/internal/recovery"
	"lrp/internal/workload"
)

// Tombstone is the value-cell sentinel for a deleted key. It is odd,
// so it can never collide with a record pointer (allocations are
// word-aligned) nor with the cell's uninitialized zero.
const Tombstone = 1

// Value-record layout (words): a record is immutable once published —
// prepared with plain stores, then installed in a key's value cell by
// one release CAS (Figure 1's prepare/publish discipline, applied to a
// value blob instead of a node).
//
// Every field is a pure, nonzero function of (key, valId, size), so a
// recovery walk can recompute the whole record from itself: a torn or
// unpersisted record — zeroed words included — always fails
// validation and is quarantined.
const (
	recWords = 0  // payload length n in words
	recValID = 8  // logical value id (nonzero)
	recSum   = 16 // checksum over (key, valId, n, payload)
	recData  = 24 // payload words
	recHdr   = 3
)

// MaxValWords caps a record's payload length; the recovery walker uses
// it to reject torn length fields before walking the payload.
const MaxValWords = 64

// payloadWord is payload word j of the record (key, valId, n): pure
// and nonzero.
func payloadWord(key, valID uint64, j int) uint64 {
	v := mix64(key ^ valID*0x9e3779b97f4a7c15 ^ (uint64(j)+1)*0xbf58476d1ce4e5b9)
	if v == 0 {
		v = 1
	}
	return v
}

// recChecksum folds the record's identity and payload into a nonzero
// checksum word.
func recChecksum(key, valID uint64, n int) uint64 {
	s := mix64(key ^ mix64(valID) ^ uint64(n))
	for j := 0; j < n; j++ {
		s ^= payloadWord(key, valID, j)
	}
	if s == 0 {
		s = 1
	}
	return s
}

// globalKey qualifies a tenant-local key: the high 16 bits carry the
// tenant, so each tenant's keys are contiguous in the ordered index
// and every index (and the dlin history) can work with one flat key
// space.
func globalKey(tenant int, key uint64) uint64 {
	return uint64(tenant)<<48 | key
}

// tenantOf inverts globalKey's tenant field.
func tenantOf(gk uint64) int { return int(gk >> 48) }

// shard is one tenant's indexes: the hashmap owns the authoritative
// key → value-cell mapping; the skiplist is the ordered key index for
// scans. Keys enter the skiplist on first Set and never leave —
// deletes tombstone the hashmap cell — so the skiplist, like the
// skiplist workload's upper levels, is a superset index whose stale
// entries are filtered through the authoritative cell.
type shard struct {
	idx *lfds.HashMap
	ord *lfds.SkipList
}

// Store is the persistent multi-tenant KV store. All methods take the
// issuing thread's Ctx; the store itself holds only anchor addresses
// and is safe to share across the machine's threads.
type Store struct {
	shards []shard
}

// New anchors a store for normalized params p. Like the lfds
// constructors it only performs static-arena allocation — no stores —
// so a Store built on a replay machine binds to the recorded run's
// addresses.
func New(sys *memsys.System, p workload.KVParams) *Store {
	s := &Store{shards: make([]shard, p.Tenants)}
	b := p.KeysPerTenant / 4
	if b < 4 {
		b = 4
	}
	for t := range s.shards {
		s.shards[t] = shard{
			idx: lfds.NewHashMap(sys, b),
			ord: lfds.NewSkipList(sys),
		}
	}
	return s
}

// writeRecord allocates and prepares a value record with plain stores;
// the caller publishes it with a release CAS.
func (s *Store) writeRecord(c *memsys.Ctx, gk, valID uint64, nwords int) uint64 {
	rec := c.Alloc(recHdr + nwords)
	c.Store(rec+recWords, uint64(nwords))
	c.Store(rec+recValID, valID)
	c.Store(rec+recSum, recChecksum(gk, valID, nwords))
	for j := 0; j < nwords; j++ {
		c.Store(rec+recData+isa.Addr(8*j), payloadWord(gk, valID, j))
	}
	return uint64(rec)
}

// readRecord loads a published record — length, id, checksum, and the
// full payload, the way a service would copy the value out — and
// returns its valId. Records are immutable, so plain loads suffice
// after the acquire load of the value cell.
func (s *Store) readRecord(c *memsys.Ctx, rec uint64) uint64 {
	n := c.Load(isa.Addr(rec) + recWords)
	id := c.Load(isa.Addr(rec) + recValID)
	c.Load(isa.Addr(rec) + recSum)
	for j := 0; j < int(n) && j < MaxValWords; j++ {
		c.Load(isa.Addr(rec) + recData + isa.Addr(8*j))
	}
	return id
}

// Get returns key's current valId (false: absent or tombstoned).
func (s *Store) Get(c *memsys.Ctx, tenant int, key uint64) (uint64, bool) {
	gk := globalKey(tenant, key)
	node := s.shards[tenant].idx.FindNode(c, gk)
	if node == 0 {
		return 0, false
	}
	v := c.LoadAcq(lfds.NodeValCell(node))
	if v == Tombstone || v == 0 {
		return 0, false
	}
	return s.readRecord(c, v), true
}

// Set unconditionally installs a fresh (valID, nwords) record on key.
// New keys enter the tenant's ordered index first, then the hashmap:
// the hashmap publish is the operation's linearization point (the last
// Ctx.Linearize before OpEnd wins), and a key is live exactly when its
// hashmap cell holds a record.
func (s *Store) Set(c *memsys.Ctx, tenant int, key, valID uint64, nwords int) {
	gk := globalKey(tenant, key)
	sh := &s.shards[tenant]
	rec := s.writeRecord(c, gk, valID, nwords)
	for {
		node := sh.idx.FindNode(c, gk)
		if node == 0 {
			sh.ord.Insert(c, gk, recovery.DefaultVal(gk))
			var inserted bool
			node, inserted = sh.idx.InsertNode(c, gk, rec)
			if inserted {
				return // InsertNode's publish CAS linearized the op
			}
			// Lost the insert race; fall through to swap the value cell.
		}
		cell := lfds.NodeValCell(node)
		cur := c.LoadAcq(cell)
		if _, ok := c.CAS(cell, cur, rec, isa.Release); ok {
			c.Linearize()
			return
		}
	}
}

// Delete tombstones key (false: it was already absent or tombstoned).
func (s *Store) Delete(c *memsys.Ctx, tenant int, key uint64) bool {
	gk := globalKey(tenant, key)
	node := s.shards[tenant].idx.FindNode(c, gk)
	if node == 0 {
		return false
	}
	cell := lfds.NodeValCell(node)
	for {
		cur := c.LoadAcq(cell)
		if cur == Tombstone || cur == 0 {
			return false
		}
		if _, ok := c.CAS(cell, cur, Tombstone, isa.Release); ok {
			c.Linearize()
			return true
		}
	}
}

// Read is the observation half of CAS: it locates key and reads its
// current record, returning the value cell's raw contents (the swap's
// expected word) and the observed valId. ok is false for an absent or
// tombstoned key.
func (s *Store) Read(c *memsys.Ctx, tenant int, key uint64) (cell isa.Addr, cur, valID uint64, ok bool) {
	gk := globalKey(tenant, key)
	node := s.shards[tenant].idx.FindNode(c, gk)
	if node == 0 {
		return 0, 0, 0, false
	}
	cell = lfds.NodeValCell(node)
	cur = c.LoadAcq(cell)
	if cur == Tombstone || cur == 0 {
		return 0, 0, 0, false
	}
	return cell, cur, s.readRecord(c, cur), true
}

// Swap is the update half of CAS: it installs a fresh (valID, nwords)
// record iff the cell still holds cur — the memcached CAS contract,
// failing (not retrying) when the key changed since Read.
func (s *Store) Swap(c *memsys.Ctx, cell isa.Addr, cur uint64, tenant int, key, valID uint64, nwords int) bool {
	gk := globalKey(tenant, key)
	rec := s.writeRecord(c, gk, valID, nwords)
	if _, ok := c.CAS(cell, cur, rec, isa.Release); ok {
		c.Linearize()
		return true
	}
	return false
}

// Scan walks tenant's ordered index from the first key >= from,
// visiting up to max index entries and reading the record of each live
// one; it returns the number of live keys read.
func (s *Store) Scan(c *memsys.Ctx, tenant int, from uint64, max int) int {
	sh := &s.shards[tenant]
	live := 0
	sh.ord.Scan(c, globalKey(tenant, from), max, func(gk, _ uint64) bool {
		node := sh.idx.FindNode(c, gk)
		if node != 0 {
			v := c.LoadAcq(lfds.NodeValCell(node))
			if v != Tombstone && v != 0 {
				s.readRecord(c, v)
				live++
			}
		}
		return true
	})
	return live
}
