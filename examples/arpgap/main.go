// ARP gap: the paper's Figure 1 scenario, executed literally.
//
// Thread 0 prepares a node with plain stores (W1), then publishes it
// with a release (the linking CAS). Release Persistency requires W1 to
// persist before the release; ARP's one-sided rule does not — under ARP
// both belong to the same epoch and drain concurrently, so the *link*
// can become durable while the node behind it is still garbage.
//
// Part 1 runs the microprogram under ARP and LRP and scans every cycle
// for a crash instant whose durable image has the link but not the node.
// Part 2 crashes a real concurrent linked-list run at every durable-state
// boundary. Part 3
// asks what the gap means for the programmer: a durable-linearizability
// sweep over a recorded operation history names the acknowledged insert
// that a post-crash recovery would silently have lost.
package main

import (
	"fmt"

	"lrp"
)

// figure1 runs the microprogram on machine m and returns the node-field
// and link addresses. The two locations are placed on the same NVM
// controller with the link at the lower address, the adversarial layout
// a real allocator can always produce.
func figure1(m *lrp.Machine) (fields, link lrp.Addr) {
	ctrl := m.Config().NVM.Controllers
	base := m.StaticAlloc((ctrl + 1) * 8)
	link = base                       // drains first (lower address)
	fields = base + lrp.Addr(ctrl*64) // same controller, higher address
	m.RunOne(func(c *lrp.Ctx) {
		c.Store(fields, 0xA1)            // W1: prepare node A1
		c.Store(fields+8, 0xA2)          // (more fields)
		c.StoreRel(link, uint64(fields)) // Rel: CAS(N1.Next) — publish
		c.LoadAcq(base + 8)              // next acquire closes ARP's epoch
		c.Store(fields+16, 1)            // keep executing
	})
	m.Drain()
	return fields, link
}

func scanMicro(mech lrp.Mechanism) {
	cfg := lrp.DefaultConfig().WithMechanism(mech)
	cfg.Cores = 1
	cfg.TrackHB = true
	m, err := lrp.NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	fields, link := figure1(m)
	var lo, hi lrp.Time = -1, -1
	for t := lrp.Time(0); t <= m.Time()+400; t++ {
		rep, err := lrp.Crash(m, t)
		if err != nil {
			panic(err)
		}
		linkDurable := rep.Image.Read(link) != 0
		nodeDurable := rep.Image.Read(fields) == 0xA1
		if linkDurable && !nodeDurable {
			if lo < 0 {
				lo = t
			}
			hi = t
			if rep.ConsistentCut() {
				panic("checker missed a dangling-link image")
			}
		}
	}
	if lo >= 0 {
		fmt.Printf("  %-4s crash window [%v, %v]: the link is durable, the node is garbage\n", mech, lo, hi)
	} else {
		fmt.Printf("  %-4s no crash instant exposes a dangling link\n", mech)
	}
}

func sweepList(mech lrp.Mechanism) {
	cfg := lrp.DefaultConfig().WithMechanism(mech)
	cfg.Cores = 4
	cfg.TrackHB = true
	_, m, err := lrp.RunWorkload(cfg, lrp.Spec{
		Structure: "linkedlist", Threads: 4, InitialSize: 256, OpsPerThread: 150, Seed: 13,
	})
	if err != nil {
		panic(err)
	}
	sweep, err := lrp.SweepCrash(m, lrp.SweepOpts{Seed: 13})
	if err != nil {
		panic(err)
	}
	fmt.Printf("  %-4s %4d of %d crash boundaries violate RP (ARP-rule violations: %d)\n",
		mech, sweep.RPBad, sweep.Boundaries, sweep.ARPBad)
}

// dlinSweep runs a history-instrumented linked-list workload under mech
// and sweeps every crash boundary for durable linearizability: must the
// recovered contents at each instant be explained by a happens-before-
// closed prefix of the recorded operations? Under ARP the structural gap
// of Parts 1–2 surfaces here as a concrete named casualty: an insert
// that returned true to its caller yet is missing from the state a
// recovery would read.
func dlinSweep(mech lrp.Mechanism) {
	cfg := lrp.DefaultConfig().WithMechanism(mech)
	cfg.Cores = 4
	cfg.TrackHB = true
	_, m, rec, hist, err := lrp.RunRecoverableWorkloadHist(cfg, lrp.Spec{
		Structure: "linkedlist", Threads: 4, InitialSize: 128, OpsPerThread: 60, Seed: 13,
	})
	if err != nil {
		panic(err)
	}
	sweep, err := lrp.SweepCrash(m, lrp.SweepOpts{Rec: rec, Hist: hist, Workers: 0, Seed: 13})
	if err != nil {
		panic(err)
	}
	if len(sweep.DLinViolations) > 0 {
		f := sweep.DLinViolations[0]
		fmt.Printf("  %-4s %d of %d boundaries lose an acknowledged operation; first casualty:\n",
			mech, sweep.DLinBad, sweep.DLinChecked)
		fmt.Printf("       %v\n", f.V)
	} else {
		fmt.Printf("  %-4s every one of %d boundaries is durably linearizable\n",
			mech, sweep.DLinChecked)
	}
}

func main() {
	fmt.Println("Part 1 — Figure 1 microprogram: prepare node, publish with a release")
	scanMicro(lrp.ARP)
	scanMicro(lrp.LRP)

	fmt.Println()
	fmt.Println("Part 2 — crashing a concurrent log-free linked list at every boundary")
	sweepList(lrp.ARP)
	sweepList(lrp.LRP)

	fmt.Println()
	fmt.Println("Part 3 — durable linearizability: the gap as a lost operation")
	dlinSweep(lrp.ARP)
	dlinSweep(lrp.LRP)

	fmt.Println()
	fmt.Println("ARP satisfies its own rule yet leaves windows in which a published link")
	fmt.Println("is durable before its node — unrecoverable without a log. LRP's stronger")
	fmt.Println("one-sided barriers close every window (§3–§4 of the paper).")
}
