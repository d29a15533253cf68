// Package trace defines the program representation the simulator
// executes: kernels of CTAs of warps, each warp an ordered stream of
// scoped memory operations (the PTX-style .cta/.gpu/.sys scopes of the
// NVIDIA memory model the paper builds on), plus page-placement hints, a
// compact binary encoding, and the contiguous CTA-scheduling function
// shared between trace analysis and the timing model.
package trace

import (
	"fmt"

	"hmg/internal/topo"
)

// Scope is a synchronization scope from the scoped GPU memory model.
type Scope uint8

const (
	// ScopeNone marks a non-synchronizing access.
	ScopeNone Scope = iota
	// ScopeCTA synchronizes threads of one CTA (handled at the L1).
	ScopeCTA
	// ScopeGPM synchronizes threads on one GPU module (handled at the
	// GPM-local L2 slice). This scope is NOT part of the production
	// memory model; it is the Section VII-D extension the paper
	// speculates about ("adding scopes in between .cta and .gpu") and
	// concludes is probably not worth its programmer burden. It exists
	// here so that conclusion can be measured.
	ScopeGPM
	// ScopeGPU synchronizes threads anywhere on one GPU (handled at the
	// GPU home node).
	ScopeGPU
	// ScopeSys synchronizes the whole system (handled at the system home
	// node).
	ScopeSys
)

var scopeNames = [...]string{"none", ".cta", ".gpm", ".gpu", ".sys"}

// String implements fmt.Stringer.
func (s Scope) String() string {
	if int(s) < len(scopeNames) {
		return scopeNames[s]
	}
	return fmt.Sprintf("Scope(%d)", uint8(s))
}

// OpKind is the kind of a memory operation.
type OpKind uint8

const (
	// Load is a plain load.
	Load OpKind = iota
	// Store is a plain (write-through) store.
	Store
	// Atomic is a read-modify-write performed at the home node of the
	// operation's scope.
	Atomic
	// LoadAcq is a load-acquire: it applies the protocol's acquire
	// actions before loading at the scope's coherence point.
	LoadAcq
	// StoreRel is a store-release: it drains prior writes and
	// invalidations for the scope's domain before completing.
	StoreRel
)

var opNames = [...]string{"Ld", "St", "Atom", "LdAcq", "StRel"}

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// IsLoad reports whether the op reads memory (loads and atomics).
func (k OpKind) IsLoad() bool { return k == Load || k == LoadAcq || k == Atomic }

// IsStore reports whether the op writes memory (stores and atomics).
func (k OpKind) IsStore() bool { return k == Store || k == StoreRel || k == Atomic }

// IsSync reports whether the op carries acquire or release semantics.
func (k OpKind) IsSync() bool { return k == LoadAcq || k == StoreRel || k == Atomic }

// Op is one memory operation in a warp's stream. Addresses are
// word-aligned (4 bytes).
type Op struct {
	Kind  OpKind
	Scope Scope
	Addr  topo.Addr
	// Gap is the number of compute cycles between this op becoming
	// eligible and its issue, modeling the instructions between memory
	// accesses.
	Gap uint32
	// Val is the value a store writes (or an atomic adds) when the
	// simulator runs in functional value-tracking mode; timing-only runs
	// and loads ignore it.
	Val uint64
}

// Warp is an in-order stream of operations.
type Warp struct {
	Ops []Op
}

// CTA is a cooperative thread array: a set of warps co-scheduled on one
// SM.
type CTA struct {
	Warps []Warp
}

// Kernel is one grid launch. Kernels of a trace execute in order, with
// an implicit .sys release/acquire pair at every boundary (dependent
// kernel launches, the paper's inter-kernel communication pattern).
type Kernel struct {
	CTAs []CTA
}

// PlacementHint pre-places a page on a GPM, standing in for the page
// placement a real first-touch run would produce; pages without hints
// are placed by first touch during simulation.
type PlacementHint struct {
	Page topo.Page
	GPM  topo.GPMID
}

// Trace is a complete program.
type Trace struct {
	Name           string
	FootprintBytes int64
	Kernels        []Kernel
	Placement      []PlacementHint
}

// Ops returns the total operation count.
func (t *Trace) Ops() int {
	n := 0
	for ki := range t.Kernels {
		for ci := range t.Kernels[ki].CTAs {
			for wi := range t.Kernels[ki].CTAs[ci].Warps {
				n += len(t.Kernels[ki].CTAs[ci].Warps[wi].Ops)
			}
		}
	}
	return n
}

// Validate checks structural sanity: word-aligned addresses, sync ops
// with scopes, and non-empty kernels.
func (t *Trace) Validate() error {
	_, err := t.validate(0, 0)
	return err
}

// ValidatePages checks t as Validate does and also bounds the pages it
// names for a page size of pageSize bytes: the page of every op's
// address and of every placement hint must lie below limit. It returns
// the number of pages the trace spans, one more than the highest page
// it names (0 when it names none). The bound is checked in the same walk
// over the ops as the rest of the validation.
func (t *Trace) ValidatePages(pageSize int, limit topo.Page) (topo.Page, error) {
	if pageSize <= 0 {
		return 0, fmt.Errorf("trace %s: page size %d, must be positive", t.Name, pageSize)
	}
	return t.validate(uint64(pageSize), limit)
}

// validate is Validate, plus ValidatePages' page bound when pageSize is
// nonzero.
func (t *Trace) validate(pageSize uint64, limit topo.Page) (topo.Page, error) {
	if t.Name == "" {
		return 0, fmt.Errorf("trace: empty name")
	}
	// Addresses at or above addrLimit lie on a page at or beyond limit.
	addrLimit := ^topo.Addr(0)
	if pageSize > 0 && uint64(limit) <= uint64(addrLimit)/pageSize {
		addrLimit = topo.Addr(uint64(limit) * pageSize)
	}
	var hiAddr topo.Addr // the highest address of any op, when ops is set
	ops := false
	for ki, k := range t.Kernels {
		if len(k.CTAs) == 0 {
			return 0, fmt.Errorf("trace %s: kernel %d has no CTAs", t.Name, ki)
		}
		for ci, c := range k.CTAs {
			for wi, w := range c.Warps {
				for oi, op := range w.Ops {
					if op.Addr%4 != 0 {
						return 0, fmt.Errorf("trace %s: k%d c%d w%d op%d: unaligned addr %#x", t.Name, ki, ci, wi, oi, uint64(op.Addr))
					}
					if op.Kind.IsSync() && op.Scope == ScopeNone {
						return 0, fmt.Errorf("trace %s: k%d c%d w%d op%d: sync op without scope", t.Name, ki, ci, wi, oi)
					}
					if op.Kind > StoreRel {
						return 0, fmt.Errorf("trace %s: k%d c%d w%d op%d: bad kind %d", t.Name, ki, ci, wi, oi, op.Kind)
					}
					if op.Scope > ScopeSys {
						return 0, fmt.Errorf("trace %s: k%d c%d w%d op%d: bad scope %d", t.Name, ki, ci, wi, oi, op.Scope)
					}
					if pageSize == 0 {
						continue
					}
					if op.Addr >= addrLimit {
						return 0, fmt.Errorf("trace %s: k%d c%d w%d op%d: addr %#x is on page %d, beyond the %d-page limit",
							t.Name, ki, ci, wi, oi, uint64(op.Addr), uint64(op.Addr)/pageSize, uint64(limit))
					}
					hiAddr, ops = max(hiAddr, op.Addr), true
				}
			}
		}
	}
	if pageSize == 0 {
		return 0, nil
	}
	var span topo.Page
	if ops {
		span = topo.Page(uint64(hiAddr)/pageSize + 1)
	}
	for i, h := range t.Placement {
		if h.Page >= limit {
			return 0, fmt.Errorf("trace %s: placement hint %d: page %d beyond the %d-page limit", t.Name, i, uint64(h.Page), uint64(limit))
		}
		span = max(span, h.Page+1)
	}
	return span, nil
}

// AssignCTA implements contiguous CTA scheduling (inherited from the
// MCM-GPU and NUMA-aware multi-GPU work the paper cites): consecutive
// CTAs map to the same GPM so that adjacent CTAs' data locality stays on
// package. CTA i of n maps to one of g GPMs in contiguous blocks.
func AssignCTA(i, n, g int) topo.GPMID {
	if n <= 0 || g <= 0 || i < 0 || i >= n {
		panic(fmt.Sprintf("trace: AssignCTA(%d, %d, %d) out of range", i, n, g))
	}
	return topo.GPMID(i * g / n)
}
