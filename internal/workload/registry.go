package workload

import (
	"fmt"
	"strings"

	"lrp/internal/lfds"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// Recoverable is a finished run's structure, bound to its anchors, as
// crash tooling sees it: it can walk any reconstructed image without
// knowing which structure the workload built. The five log-free
// structures of package lfds and the kv store implement it.
type Recoverable interface {
	// Name names the walked structure (one of Names).
	Name() string
	// Recover performs the hardened null-recovery walk over img:
	// corrupt nodes are quarantined into the report, never panicking.
	// Its Err is the strict verdict: nil iff the image recovered in full.
	// The walk keeps a memo with img and re-walks only what changed
	// since the previous Recover over img (recovery.Walk), so a report
	// is valid until the next Recover over the same image; Clone it to
	// keep it longer.
	Recover(img *mm.Memory) *recovery.Report
}

// Kind is one registered workload: the five paper structures plus any
// service-shaped workload (e.g. the kv store) that layers on top of
// them. The registry is the single source of truth for what `-workload`
// / `-structure` flags accept — CLIs derive their usage strings from
// Names() instead of hand-maintained lists.
type Kind struct {
	// Name is the registry key (the Spec.Structure value).
	Name string
	// Run executes the workload on a fresh machine. The harness has
	// already validated spec and checked spec.Threads against the core
	// count. Run brackets every structure call with Ctx.OpBegin/OpEnd
	// (dlin encoding), so a run that captures its history records it.
	Run func(sys *memsys.System, spec Spec) (*Result, Recoverable, error)
	// Anchors rebuilds a Recoverable handle on a machine whose run is
	// driven externally (trace replay): pure static-arena allocation,
	// no stores.
	Anchors func(sys *memsys.System, spec Spec) (Recoverable, error)
	// Validate optionally checks workload-specific spec fields; the
	// common fields (threads, sizes, mix) are checked by Spec.Validate
	// before it is called.
	Validate func(Spec) error
}

// registry holds the Kinds in registration order: the five paper
// structures first (their order is pinned by golden tables), then any
// extension workloads in the order their packages registered.
var registry []Kind

// Register adds a workload to the registry. It panics on a duplicate or
// empty name: registration happens from init functions, where a clash
// is a programming error, not a runtime condition.
func Register(k Kind) {
	if k.Name == "" || k.Run == nil || k.Anchors == nil {
		panic("workload: Register requires Name, Run, and Anchors")
	}
	for _, have := range registry {
		if have.Name == k.Name {
			panic("workload: duplicate registration of " + k.Name)
		}
	}
	registry = append(registry, k)
}

// Names returns the registered workload names in registration order.
func Names() []string {
	names := make([]string, len(registry))
	for i, k := range registry {
		names[i] = k.Name
	}
	return names
}

// ParseKind resolves a workload name against the registry.
func ParseKind(name string) (Kind, error) {
	for _, k := range registry {
		if k.Name == name {
			return k, nil
		}
	}
	return Kind{}, fmt.Errorf("workload: unknown structure %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}

func init() {
	setKind := func(name string) Kind {
		return Kind{
			Name: name,
			Run:  runSet,
			Anchors: func(sys *memsys.System, spec Spec) (Recoverable, error) {
				return newSet(sys, spec), nil
			},
		}
	}
	Register(setKind("linkedlist")) // sorted singly linked list (Harris), 1:1 insert/delete
	Register(setKind("hashmap"))    // per-bucket sorted lists, Fibonacci-hashed
	Register(setKind("bstree"))     // external binary search tree
	Register(setKind("skiplist"))   // lock-free skiplist, release-CAS bottom level
	Register(Kind{                  // Michael-Scott queue, 1:1 enqueue/dequeue
		Name: "queue",
		Run:  runQueue,
		Anchors: func(sys *memsys.System, spec Spec) (Recoverable, error) {
			return lfds.NewQueue(sys), nil
		},
	})
}
