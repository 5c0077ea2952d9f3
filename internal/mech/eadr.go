package mech

import (
	"lrp/internal/cache"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mm"
	"lrp/internal/model"
)

// eadrMech models an eADR / extended-ADR platform: the entire cache
// hierarchy sits inside the persistence domain, so a store is durable the
// moment it completes. No flushes, no barriers, no ordering stalls: it
// embeds NOP and keeps all of NOP's timing hooks, so its execution
// timing is NOP's by construction, which makes eADR the upper bound newer
// persistency studies compare enforcement mechanisms against.
//
// Durability is mechanism-held rather than NVM-event-driven: OnStamped
// marks each write persisted immediately and appends it to a durable-
// store log, from which NewCrashCursor rebuilds crash images — the
// durable image at instant t is every store completed by t; the NVM
// write-back log plays no part (a write-back's content can lag the log
// and must not clobber it). Each mark uses a monotone completion sequence
// (max of the thread-local completion times seen so far): visibility
// order is the global OnStamped order, so a nondecreasing clock along it
// makes every time-prefix downward-closed under happens-before — eADR
// can never violate RP, structurally. The mechanism consumes each
// write's stamp on the spot (nothing downstream owns its durability), so
// later cache write-backs cannot re-mark a write with an earlier,
// order-breaking NVM ack time.
type eadrMech struct {
	nopMech

	// seq is the monotone durable-completion clock (see above).
	seq engine.Time
	// log is the durable-store log in visibility order; at values are
	// nondecreasing. Only populated under happens-before tracking.
	log []eadrWrite
	// instants are the release/drain completion times: the boundaries
	// the crash sweep probes (between them, plain-store prefixes are
	// consistent by construction).
	instants []engine.Time
}

type eadrWrite struct {
	addr isa.Addr
	val  uint64
	at   engine.Time
}

func newEADR(sv SystemView) Mechanism { return &eadrMech{nopMech: nopMech{sv: sv}} }

func (m *eadrMech) OnStamped(tid int, l *cache.Line, addr isa.Addr, val uint64, st model.Stamp, release bool, now engine.Time) engine.Time {
	if m.sv.Tracking() {
		if now > m.seq {
			m.seq = now
		}
		// The store is durable as of m.seq; consume its stamp so no NVM
		// write-back path re-marks it later.
		m.sv.SetPersisted(st, m.seq)
		l.DropLastStamp(m.sv.Stamps())
		m.log = append(m.log, eadrWrite{addr: addr, val: val, at: m.seq})
		if release {
			m.instants = append(m.instants, m.seq)
		}
	}
	return now
}

func (m *eadrMech) Drain(tid int, now engine.Time) engine.Time {
	// A clean shutdown flushes the caches so the plain NVM final image is
	// whole without the overlay (NOP's drain).
	done := m.nopMech.Drain(tid, now)
	if m.sv.Tracking() {
		if done > m.seq {
			m.seq = done
		}
		m.instants = append(m.instants, m.seq)
	}
	return done
}

// NewCrashCursor hands crash analysis the durable-store log (the cursor
// owns the image — the NVM event log is ignored); nil without
// happens-before tracking (no crash analysis then).
func (m *eadrMech) NewCrashCursor() CrashCursor {
	if m.log == nil {
		return nil
	}
	return &eadrCursor{log: m.log}
}

// CrashInstants exposes release/drain completions as extra sweep
// boundaries. Plain stores change the durable image too, but every
// time-prefix is consistent by construction (see the type comment);
// probing each store would only make the sweep quadratic.
func (m *eadrMech) CrashInstants() []engine.Time { return m.instants }

// eadrCursor replays the durable-store log into an image, incrementally:
// successive ApplyTo calls with nondecreasing at values each apply only
// the log segment newly ≤ at, in visibility order.
type eadrCursor struct {
	log []eadrWrite
	i   int
}

func (c *eadrCursor) ApplyTo(img *mm.Memory, at engine.Time) {
	for c.i < len(c.log) && c.log[c.i].at <= at {
		img.Write(c.log[c.i].addr, c.log[c.i].val)
		c.i++
	}
}
