package lrp

import (
	"encoding/json"
	"io"
)

// Schema tags of the machine-readable crash-analysis exports
// (lrpcheck -json). Bump on any incompatible change so
// downstream tooling fails loudly, mirroring obs.MetricsSchema.
const (
	// CrashSchema tags a single-instant CrashReport export.
	CrashSchema = "lrpcrash/v1"
	// SweepSchema tags a whole-execution SweepReport export.
	SweepSchema = "lrpsweep/v1"
)

// CrashJSON is the machine-readable form of a CrashReport.
type CrashJSON struct {
	Schema          string `json:"schema"`
	At              Time   `json:"at"`
	PersistedWrites uint64 `json:"persisted_writes"`
	TotalWrites     uint64 `json:"total_writes"`
	ConsistentCut   bool   `json:"consistent_cut"`
	// RPViolations and ARPViolations render each cut violation in the
	// checker's order (stable for a given run).
	RPViolations  []string      `json:"rp_violations,omitempty"`
	ARPViolations []string      `json:"arp_violations,omitempty"`
	Recovery      *RecoveryJSON `json:"recovery,omitempty"`
}

// RecoveryJSON summarizes a hardened recovery walk. Contents are
// reported as sizes, not listings: the walk's maps would need sorting to
// export deterministically and the sizes carry the comparison signal.
type RecoveryJSON struct {
	Structure string `json:"structure"`
	Clean     bool   `json:"clean"`
	Nodes     int    `json:"nodes"`
	// Members is the recovered key count (keyed structures); Length the
	// recovered value count (queue).
	Members     int      `json:"members,omitempty"`
	Length      int      `json:"length,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
	Abandoned   int      `json:"abandoned,omitempty"`
}

// DLinFindingJSON is one durable-linearizability finding.
type DLinFindingJSON struct {
	Boundary  int    `json:"boundary"`
	At        Time   `json:"at"`
	Mechanism string `json:"mechanism"`
	Seed      uint64 `json:"seed"`
	Class     string `json:"class"`
	Op        int    `json:"op"`
	Kind      string `json:"kind"`
	Key       uint64 `json:"key"`
	Val       uint64 `json:"val"`
	Detail    string `json:"detail"`
}

// SweepJSON is the machine-readable form of a SweepReport.
type SweepJSON struct {
	Schema      string `json:"schema"`
	Mechanism   string `json:"mechanism"`
	Seed        uint64 `json:"seed"`
	Boundaries  int    `json:"boundaries"`
	RPBad       int    `json:"rp_bad"`
	ARPBad      int    `json:"arp_bad"`
	WalksRun    int    `json:"walks_run"`
	DirtyWalks  int    `json:"dirty_walks"`
	Quarantined int    `json:"quarantined"`
	DLinChecked int    `json:"dlin_checked"`
	DLinBad     int    `json:"dlin_bad"`
	Consistent  bool   `json:"consistent"`
	// FirstRP is the full report of the first RP-violating boundary;
	// FirstDirtyAt the instant of the first non-clean recovery walk
	// (omitted when clean, since t=0 is a valid instant).
	FirstRP        *CrashJSON        `json:"first_rp,omitempty"`
	FirstDirtyAt   *Time             `json:"first_dirty_at,omitempty"`
	DLinViolations []DLinFindingJSON `json:"dlin_violations,omitempty"`
}

// JSON captures the report as a CrashJSON document. Every field is a
// scalar or an order-stable slice, so marshaling is deterministic: the
// same report always produces the same bytes.
func (r *CrashReport) JSON() CrashJSON {
	doc := CrashJSON{
		Schema:          CrashSchema,
		At:              r.At,
		PersistedWrites: r.PersistedWrites,
		TotalWrites:     r.TotalWrites,
		ConsistentCut:   r.ConsistentCut(),
	}
	for _, v := range r.RPViolations {
		doc.RPViolations = append(doc.RPViolations, v.String())
	}
	for _, v := range r.ARPViolations {
		doc.ARPViolations = append(doc.ARPViolations, v.String())
	}
	if r.Recovery != nil {
		rec := &RecoveryJSON{
			Structure: r.Recovery.Structure,
			Clean:     r.Recovery.Clean(),
			Abandoned: r.Recovery.Abandoned,
		}
		if r.Recovery.Set != nil {
			rec.Nodes = r.Recovery.Set.Nodes
			rec.Members = len(r.Recovery.Set.Members)
		}
		if r.Recovery.Queue != nil {
			rec.Nodes = r.Recovery.Queue.Nodes
			rec.Length = len(r.Recovery.Queue.Values)
		}
		for _, q := range r.Recovery.Quarantined {
			rec.Quarantined = append(rec.Quarantined, q.Error())
		}
		doc.Recovery = rec
	}
	return doc
}

// JSON captures the report as a SweepJSON document. Deterministic for a
// deterministic sweep: SweepCrash's merge is identical at any worker
// count, so so are these bytes — the property the conformance suite
// pins by diffing exports across worker counts.
func (r *SweepReport) JSON() SweepJSON {
	doc := SweepJSON{
		Schema:      SweepSchema,
		Mechanism:   r.Mechanism,
		Seed:        r.Seed,
		Boundaries:  r.Boundaries,
		RPBad:       r.RPBad,
		ARPBad:      r.ARPBad,
		WalksRun:    r.WalksRun,
		DirtyWalks:  r.DirtyWalks,
		Quarantined: r.Quarantined,
		DLinChecked: r.DLinChecked,
		DLinBad:     r.DLinBad,
		Consistent:  r.Consistent(),
	}
	if r.FirstRP != nil {
		first := r.FirstRP.JSON()
		doc.FirstRP = &first
	}
	if r.FirstDirty != nil {
		at := r.FirstDirtyAt
		doc.FirstDirtyAt = &at
	}
	for _, f := range r.DLinViolations {
		doc.DLinViolations = append(doc.DLinViolations, DLinFindingJSON{
			Boundary:  f.Boundary,
			At:        f.At,
			Mechanism: f.Mechanism,
			Seed:      f.Seed,
			Class:     f.V.Class.String(),
			Op:        f.V.Op,
			Kind:      f.V.Kind.String(),
			Key:       f.V.Key,
			Val:       f.V.Val,
			Detail:    f.V.Detail,
		})
	}
	return doc
}

// WriteJSON writes the sweep report as indented JSON with a trailing
// newline.
func (r *SweepReport) WriteJSON(w io.Writer) error { return writeJSON(w, r.JSON()) }

func writeJSON(w io.Writer, doc any) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
