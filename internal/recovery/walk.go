package recovery

import (
	"cmp"
	"slices"

	"lrp/internal/flat"
	"lrp/internal/isa"
	"lrp/internal/mm"
)

// A Walker is a structure whose hardened recovery walk divides into walk
// units: one bucket chain, one ordered level, or the whole structure. A
// unit's findings and members depend only on the image lines it reads,
// units recover disjoint keys, and the walk is the units in index order.
type Walker interface {
	// Name names the walked structure (Report.Structure).
	Name() string
	// Units returns the number of walk units.
	Units() int
	// WalkUnit walks unit u of img into rep: quarantines and abandons
	// through rep, nodes into rep.Set.Nodes, members through Recovered.
	// A queue's walk sets rep.Queue instead, and its report has no Set.
	WalkUnit(img *mm.Memory, rep *Report, u int)
}

// Walk returns w's hardened recovery walk over img. It keeps what each
// unit found in a memo held by img, keyed by w, and re-walks only the
// units that read a line written since the previous Walk over img: the
// others would read the same words and find the same things. A fresh
// image (or one last walked by another structure) walks in full.
//
// A report is valid until the next Walk over the same image: the reports
// of one image share one Members map, which a re-walk updates in place.
// Walk returns the previous report itself when no unit was re-walked,
// and a new one otherwise. Clone a report to keep it longer. A new
// report tells which members the re-walk changed (Report.ChangedSince),
// so a reader of successive reports can work from the difference.
func Walk(img *mm.Memory, w Walker) *Report {
	m, _ := img.Memo(w).(*walkMemo)
	written := img.Written()
	if m == nil {
		m = newWalkMemo(w)
		img.SetMemo(w, m)
	} else {
		for _, l := range written {
			if head := m.lines.Ptr(uint64(l)); head != nil {
				for i := *head; i != 0; i = m.refs[i-1].next {
					if r := m.refs[i-1].unitRef; m.units[r.u].gen == r.gen {
						m.markStale(int(r.u))
					}
				}
			}
		}
		if len(m.stale) == 0 {
			return m.rep
		}
	}
	m.changed = m.changed[:0]
	for _, u := range m.stale {
		m.walk(img, w, int(u))
	}
	m.stale = m.stale[:0]
	m.rep = m.report()
	return m.rep
}

// walkMemo is what Walk keeps with an image: each unit's last findings,
// the members they recovered, and which unit read which line.
type walkMemo struct {
	name  string
	units []unitMemo
	// lines maps a line to the units whose last walk read it, as the
	// head of a list of nodes in refs (1-based; 0 ends a list). A unit's
	// references from before its last walk are dead (gen moved on); they
	// are unlinked, onto the free list, when the line gains a new one.
	lines flat.Table[int32]
	refs  []refNode
	free  int32
	// members is the one Members map of every report; nodes, abandoned
	// and findings total the units'. queue is a queue walker's contents.
	members                    map[uint64]uint64
	nodes, abandoned, findings int
	queue                      *QueueState
	rep                        *Report
	// gen numbers the reports built from the memo; changed holds the
	// keys whose membership or value the walk that built the latest one
	// changed.
	gen     uint64
	changed []uint64

	stale   []int32 // units to re-walk
	isStale []bool
	scratch Report   // the report a unit walks into
	spare   []member // storage for the next unit's members
	set     SetState
}

// unitMemo is one unit's last walk.
type unitMemo struct {
	gen       uint32
	findings  []Corruption
	nodes     int
	abandoned int
	members   []member // the members it recovered, by key
}

// member is one recovered key and its value.
type member struct{ key, val uint64 }

type unitRef struct{ u, gen uint32 }

// refNode is one unitRef in a line's list, or a node on the free list.
type refNode struct {
	unitRef
	next int32
}

func newWalkMemo(w Walker) *walkMemo {
	n := w.Units()
	m := &walkMemo{
		name:    w.Name(),
		units:   make([]unitMemo, n),
		members: map[uint64]uint64{},
		isStale: make([]bool, n),
	}
	for u := range n {
		m.markStale(u)
	}
	m.set.Members = m.members
	m.scratch = Report{Structure: m.name, Set: &m.set}
	return m
}

func (m *walkMemo) markStale(u int) {
	if !m.isStale[u] {
		m.isStale[u] = true
		m.stale = append(m.stale, int32(u))
	}
}

// walk re-walks unit u, replacing its findings, members and lines. It
// changes the Members map, and lists in changed, only the keys whose
// membership or value the re-walk changed.
func (m *walkMemo) walk(img *mm.Memory, w Walker, u int) {
	un := &m.units[u]
	m.isStale[u] = false
	sc := &m.scratch
	sc.Queue, sc.Quarantined, sc.Abandoned, sc.members = nil, un.findings[:0], 0, m.spare[:0]
	m.set.Nodes = 0
	img.Watch()
	w.WalkUnit(img, sc, u)

	nodes := m.set.Nodes
	if sc.Queue != nil {
		m.queue, nodes = sc.Queue, 0
	}
	m.nodes += nodes - un.nodes
	m.abandoned += sc.Abandoned - un.abandoned
	m.findings += len(sc.Quarantined) - len(un.findings)
	un.findings, un.nodes, un.abandoned = sc.Quarantined, nodes, sc.Abandoned
	cur := byKey(sc.members)
	m.spare = m.update(un.members, cur)
	un.members = cur

	un.gen++
	ref := unitRef{uint32(u), un.gen}
	for _, l := range img.Reads() {
		m.index(l, ref)
	}
}

// byKey sorts a unit's recovered members by key, stably, and keeps the
// last of each key: what a map assigned them in walk order would hold.
func byKey(ms []member) []member {
	cmpKey := func(a, b member) int { return cmp.Compare(a.key, b.key) }
	if !slices.IsSortedFunc(ms, cmpKey) {
		slices.SortStableFunc(ms, cmpKey)
	}
	out := ms[:0]
	for i, e := range ms {
		if i+1 < len(ms) && ms[i+1].key == e.key {
			continue
		}
		out = append(out, e)
	}
	return out
}

// update moves the Members map from a unit's old members to its new
// ones, both by key, noting each key it changes, and returns old's
// storage for reuse.
func (m *walkMemo) update(old, cur []member) []member {
	i := 0
	for _, e := range cur {
		for i < len(old) && old[i].key < e.key {
			delete(m.members, old[i].key)
			m.changed = append(m.changed, old[i].key)
			i++
		}
		if i < len(old) && old[i].key == e.key {
			i++
			if old[i-1].val == e.val {
				continue
			}
		}
		m.members[e.key] = e.val
		m.changed = append(m.changed, e.key)
	}
	for _, e := range old[i:] {
		delete(m.members, e.key)
		m.changed = append(m.changed, e.key)
	}
	return old[:0]
}

// index records that ref's unit read line l, after l's live references,
// and unlinks its dead ones.
func (m *walkMemo) index(l isa.Addr, ref unitRef) {
	// Take the new node first: growing refs moves the nodes the walk
	// below links through.
	n := m.free
	if n != 0 {
		m.free = m.refs[n-1].next
		m.refs[n-1] = refNode{unitRef: ref}
	} else {
		m.refs = append(m.refs, refNode{unitRef: ref})
		n = int32(len(m.refs))
	}
	link, _ := m.lines.Upsert(uint64(l))
	for i := *link; i != 0; {
		r := &m.refs[i-1]
		next := r.next
		if m.units[r.u].gen == r.gen {
			*link, link = i, &r.next
		} else {
			r.next, m.free = m.free, i
		}
		i = next
	}
	*link = n
}

// report assembles the units' findings, in unit order, into a new report.
func (m *walkMemo) report() *Report {
	m.gen++
	r := &Report{Structure: m.name, Abandoned: m.abandoned, memo: m, gen: m.gen}
	if m.queue != nil {
		r.Queue = m.queue
	} else {
		r.Set = &SetState{Members: m.members, Nodes: m.nodes}
	}
	if m.findings > 0 {
		r.Quarantined = make([]Corruption, 0, m.findings)
		for i := range m.units {
			r.Quarantined = append(r.Quarantined, m.units[i].findings...)
		}
	}
	return r
}
