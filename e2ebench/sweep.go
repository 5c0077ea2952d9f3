package main

import (
	"bytes"
	"fmt"
	"strings"

	"lrp"
	"lrp/internal/dlin"
	"lrp/internal/mm"
	"lrp/internal/model"
	"lrp/internal/nvm"
)

// sweepMechs are the swept mechanisms: LRP is the clean path, ARP the
// violating one, and eADR owns its crash image (mechanism crash cursor).
var sweepMechs = []lrp.Mechanism{lrp.LRP, lrp.ARP, lrp.EADR}

// sweepSeeds is the number of kv runs swept per mechanism, each from a
// seed of its own derived from the workload seed. A run's sweep time per
// boundary varies by about 6% from one run seed to the next (measured on
// 12 seeds), so a job of two runs per mechanism varies less from one
// workload seed to the next than a job of one. Smaller runs do not serve
// instead: most boundaries come from the fill, so halving a run's
// operations barely shortens its sweep, and runs of 256 keys and 50
// operations per thread vary by 25%.
const sweepSeeds = 2

// sweepKV runs SweepCrash with recovery walks and durable-linearizability
// checks over every crash boundary of sweepSeeds recorded kv runs per
// mechanism.
type sweepKV struct {
	runs []sweepRun
	// needARPGap fails a job whose ARP sweep finds no violation, since it
	// would leave quarantine and dlin findings untimed. Tiny runs are too
	// short to be sure of one.
	needARPGap bool
}

type sweepRun struct {
	mech lrp.Mechanism
	seed uint64
	m    *lrp.Machine
	rec  lrp.Recoverable
	hist *lrp.OpHistory
	ref  *lrp.SweepReport // from reference()
}

func setupSweep(p params) (bench, error) {
	s := &sweepKV{needARPGap: !p.tiny}
	spec := lrp.Spec{Structure: "kv", Threads: 4, InitialSize: 512, OpsPerThread: 100}
	if p.tiny {
		spec.InitialSize, spec.OpsPerThread = 128, 10
	}
	for i, k := range sweepMechs {
		cfg := lrp.DefaultConfig().WithMechanism(k)
		cfg.Cores = 16
		cfg.TrackHB = true
		for j := range sweepSeeds {
			spec.Seed = p.seed ^ uint64(i*sweepSeeds+j+1)*0x9e3779b97f4a7c15
			_, m, rec, h, err := lrp.RunRecoverableWorkloadHist(cfg, spec)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", k, spec.Seed, err)
			}
			s.runs = append(s.runs, sweepRun{mech: k, seed: spec.Seed, m: m, rec: rec, hist: h})
		}
	}
	return s, nil
}

// gapRec calls gap before every recovery walk, so that the harness can
// run its reference kernel between the boundaries of a sweep, which lasts
// seconds.
type gapRec struct {
	lrp.Recoverable
	gap func()
}

func (g gapRec) Recover(img *lrp.Image) *lrp.RecoveryReport {
	g.gap()
	return g.Recoverable.Recover(img)
}

// sweep runs SweepCrash over r, calling gap between its boundaries.
func (s *sweepKV) sweep(r sweepRun, gap func()) (*lrp.SweepReport, error) {
	rep, err := lrp.SweepCrash(r.m, lrp.SweepOpts{Rec: gapRec{r.rec, gap}, Hist: r.hist, Workers: 1, Seed: r.seed})
	if err != nil {
		return nil, err
	}
	if r.mech.EnforcesRP() && !rep.Consistent() {
		return nil, fmt.Errorf("%s sweep is not consistent: %v", r.mech, rep)
	}
	if r.mech == lrp.ARP && s.needARPGap && (rep.RPBad == 0 || rep.DirtyWalks == 0 || rep.DLinBad == 0) {
		return nil, fmt.Errorf("ARP sweep misses the violating path: %v", rep)
	}
	return rep, nil
}

func (s *sweepKV) job(gap func()) (jobOut, error) {
	var fp bytes.Buffer
	var work float64
	var note strings.Builder
	for i, r := range s.runs {
		if i > 0 {
			gap()
		}
		rep, err := s.sweep(r, gap)
		if err != nil {
			return jobOut{}, err
		}
		if err := rep.WriteJSON(&fp); err != nil {
			return jobOut{}, err
		}
		work += float64(rep.Boundaries)
		fmt.Fprintln(&note, rep)
	}
	return jobOut{work: work, fp: fp.String(), note: note.String()}, nil
}

func (s *sweepKV) reference() error {
	for i := range s.runs {
		rep, err := s.sweep(s.runs[i], func() {})
		if err != nil {
			return err
		}
		s.runs[i].ref = rep
	}
	return nil
}

// sweepTally is what the traced sweep loop counts; it must equal the
// reference SweepReport's counts.
type sweepTally struct {
	boundaries, rpBad, arpBad int
	walks, dirty, quarantined int
	dlinChecked, dlinBad      int
	findings                  int
	// firstRP and firstDirty are the first such boundaries' instants, -1
	// for none.
	firstRP, firstDirty lrp.Time
}

// tallyOf is a SweepReport's counts as a sweepTally.
func tallyOf(r *lrp.SweepReport) sweepTally {
	t := sweepTally{r.Boundaries, r.RPBad, r.ARPBad, r.WalksRun, r.DirtyWalks,
		r.Quarantined, r.DLinChecked, r.DLinBad, len(r.DLinViolations), -1, -1}
	if r.FirstRP != nil {
		t.firstRP = r.FirstRP.At
	}
	if r.FirstDirty != nil {
		t.firstDirty = r.FirstDirtyAt
	}
	return t
}

// traced repeats SweepCrash's serial sweep with a span around every call
// into a layer: the happens-before model's CheckCut, the NVM cursor or the
// mechanism's crash cursor, the hardened recovery walk, and the dlin pass.
func (s *sweepKV) traced(tr *tracer) (tracedOut, error) {
	v := map[string]float64{}
	for _, r := range s.runs {
		k := r.mech.String()
		top := tr.begin("sweep." + k)
		t, err := sweepTraced(tr, r)
		tr.end(top)
		if err != nil {
			return tracedOut{}, fmt.Errorf("%s seed %d: %w", k, r.seed, err)
		}
		if want := tallyOf(r.ref); t != want {
			return tracedOut{}, fmt.Errorf("%s seed %d: traced sweep tallies %+v, SweepCrash reported %+v", k, r.seed, t, want)
		}
		v["crash.boundaries."+k] += float64(t.boundaries)
		v["model.rp_bad."+k] += float64(t.rpBad)
		v["model.arp_bad."+k] += float64(t.arpBad)
		v["recovery.dirty_walks."+k] += float64(t.dirty)
		v["recovery.quarantined."+k] += float64(t.quarantined)
		v["dlin.bad."+k] += float64(t.dlinBad)
	}
	self := tr.selfTimes()
	covered := self["crash.enumerate"] + self["crash.first_rp"]
	v["crash.enumerate_s"] = self["crash.enumerate"].Seconds()
	v["crash.first_rp_s"] = self["crash.first_rp"].Seconds()
	for _, m := range sweepMechs {
		k := m.String()
		n := v["crash.boundaries."+k]
		cut := self["model.checkcut."+k]
		cursor := self["nvm.cursor."+k] + self["mech.crash_cursor."+k]
		walk := self["recovery.walk."+k]
		build, check := self["dlin.build."+k], self["dlin.check."+k]
		v["model.checkcut_s."+k] = cut.Seconds()
		v["model.checkcut_ns_per_boundary."+k] = perUnit(float64(cut), n)
		v["recovery.walk_s."+k] = walk.Seconds()
		v["recovery.ns_per_walk."+k] = perUnit(float64(walk), n)
		v["dlin.build_s."+k] = build.Seconds()
		v["dlin.check_s."+k] = check.Seconds()
		v["dlin.ns_per_check."+k] = perUnit(float64(check), n)
		if m == lrp.EADR {
			v["mech.crash_cursor_s."+k] = cursor.Seconds()
		} else {
			v["nvm.cursor_s."+k] = cursor.Seconds()
		}
		covered += cut + cursor + walk + build + check
	}
	return tracedOut{layers: v, covered: covered}, nil
}

// sweepTraced is SweepCrash's serial path for one machine, with spans.
func sweepTraced(tr *tracer, r sweepRun) (sweepTally, error) {
	k := r.mech.String()
	t := sweepTally{firstRP: -1, firstDirty: -1}
	m := r.m
	trk := m.Tracker()

	id := tr.begin("crash.enumerate")
	bounds := lrp.CrashBoundaries(m)
	tr.end(id)
	t.boundaries = len(bounds)

	id = tr.begin("dlin.build." + k)
	ck, err := dlin.NewChecker(r.hist, trk)
	var pass *dlin.Pass
	if err == nil {
		pass = ck.NewPass()
	}
	tr.end(id)
	if err != nil {
		return t, err
	}

	mcur := m.MechCrashCursor()
	cutID := tr.name("model.checkcut." + k)
	walkID := tr.name("recovery.walk." + k)
	checkID := tr.name("dlin.check." + k)
	var cursorID int32
	var cur *nvm.Cursor
	var mimg *mm.Memory
	if mcur != nil {
		cursorID = tr.name("mech.crash_cursor." + k)
		mimg = mm.NewMemory()
	} else {
		cursorID = tr.name("nvm.cursor." + k)
		id := tr.beginID(cursorID)
		cur = m.NVM().NewCursor(nil)
		tr.end(id)
	}
	var findings []lrp.DLinFinding
	for i, at := range bounds {
		id := tr.beginID(cutID)
		rp := trk.CheckCut(at, model.RP)
		arp := trk.CheckCut(at, model.ARP)
		tr.end(id)
		if len(rp) > 0 {
			t.rpBad++
			if t.firstRP < 0 {
				t.firstRP = at
			}
		}
		if len(arp) > 0 {
			t.arpBad++
		}

		id = tr.beginID(cursorID)
		var img *mm.Memory
		if mcur != nil {
			mcur.ApplyTo(mimg, at)
			img = mimg
		} else {
			img = cur.AdvanceTo(at)
		}
		tr.end(id)

		id = tr.beginID(walkID)
		rep := r.rec.Recover(img)
		m.Observer().RecoveryQuarantine(len(rep.Quarantined))
		tr.end(id)
		t.walks++
		if !rep.Clean() {
			t.dirty++
			t.quarantined += len(rep.Quarantined)
			if t.firstDirty < 0 {
				t.firstDirty = at
			}
		}

		id = tr.beginID(checkID)
		if vs := pass.Check(at, rep); len(vs) > 0 {
			t.dlinBad++
			for _, v := range vs {
				if len(findings) >= lrp.MaxDLinFindings {
					break
				}
				findings = append(findings, lrp.DLinFinding{Boundary: i, At: at, V: v})
			}
		}
		tr.end(id)
		t.dlinChecked++
	}
	t.findings = len(findings)

	// SweepCrash rebuilds the first RP-violating boundary's full crash
	// report, image included.
	if t.firstRP >= 0 {
		id := tr.begin("crash.first_rp")
		_, err := lrp.Crash(m, t.firstRP)
		tr.end(id)
		if err != nil {
			return t, err
		}
	}
	return t, nil
}
