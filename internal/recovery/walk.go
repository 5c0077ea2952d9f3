package recovery

import (
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
// and a new one otherwise. Clone a report to keep it longer.
func Walk(img *mm.Memory, w Walker) *Report {
	m, _ := img.Memo(w).(*walkMemo)
	written := img.Written()
	if m == nil {
		m = newWalkMemo(w)
		img.SetMemo(w, m)
	} else {
		for _, l := range written {
			if refs := m.lines.Ptr(uint64(l)); refs != nil {
				for _, r := range *refs {
					if m.units[r.u].gen == r.gen {
						m.markStale(int(r.u))
					}
				}
			}
		}
		if len(m.stale) == 0 {
			return m.rep
		}
	}
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
	// lines maps a line to the units whose last walk read it. A unit's
	// references from before its last walk are dead (gen moved on) and
	// are dropped when the line gains a new one.
	lines flat.Table[[]unitRef]
	// members is the one Members map of every report; nodes, abandoned
	// and findings total the units'. queue is a queue walker's contents.
	members                    map[uint64]uint64
	nodes, abandoned, findings int
	queue                      *QueueState
	rep                        *Report

	stale   []int32 // units to re-walk
	isStale []bool
	scratch Report // the report a unit walks into
	set     SetState
}

// unitMemo is one unit's last walk.
type unitMemo struct {
	gen       uint32
	findings  []Corruption
	nodes     int
	abandoned int
	keys      []uint64 // the members it recovered
}

type unitRef struct{ u, gen uint32 }

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

// walk re-walks unit u, replacing its findings, members and lines.
func (m *walkMemo) walk(img *mm.Memory, w Walker, u int) {
	un := &m.units[u]
	m.isStale[u] = false
	for _, k := range un.keys {
		delete(m.members, k)
	}
	sc := &m.scratch
	sc.Queue, sc.Quarantined, sc.Abandoned, sc.keys = nil, un.findings[:0], 0, un.keys[:0]
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
	un.findings, un.nodes, un.abandoned, un.keys = sc.Quarantined, nodes, sc.Abandoned, sc.keys

	un.gen++
	ref := unitRef{uint32(u), un.gen}
	for _, l := range img.Reads() {
		m.index(l, ref)
	}
}

// index records that ref's unit read line l, dropping l's dead references.
func (m *walkMemo) index(l isa.Addr, ref unitRef) {
	p, _ := m.lines.Upsert(uint64(l))
	live := (*p)[:0]
	for _, r := range *p {
		if m.units[r.u].gen == r.gen {
			live = append(live, r)
		}
	}
	*p = append(live, ref)
}

// report assembles the units' findings, in unit order, into a new report.
func (m *walkMemo) report() *Report {
	r := &Report{Structure: m.name, Abandoned: m.abandoned}
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
