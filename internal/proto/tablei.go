package proto

import (
	"slices"

	"hmg/internal/directory"
	"hmg/internal/topo"
)

// Requester identifies the sender of a request as seen by a home node's
// directory: either a GPM (a global id under NHCC, a GPU-local module
// index under HMG) or, at an HMG system home node, a whole GPU.
type Requester struct {
	IsGPU bool
	ID    int
}

// GPMRequester names a GPM requester.
func GPMRequester(id int) Requester { return Requester{ID: id} }

// GPURequester names a GPU requester.
func GPURequester(id int) Requester { return Requester{IsGPU: true, ID: id} }

// Bit returns the requester's sharer-set bit: a GPM bit for module
// requesters, a GPU bit for whole-GPU requesters at an HMG system home.
func (r Requester) Bit() directory.Sharers {
	if r.IsGPU {
		return directory.GPUBit(r.ID)
	}
	return directory.GPMBit(r.ID)
}

// Mutation is a bitset of deliberate Table I transition bugs. Each bit
// suppresses the invalidations emitted by the Table I columns it names
// (Step's suppressedBy); the Fig. 9/10 counters still record the
// intended traffic. The conformance harness (internal/check) and the
// spec enumerator enable these to prove they actually detect protocol
// violations; production configurations always run with zero.
type Mutation uint8

const (
	// MutDropStoreInv makes remote and local stores clear the sharer
	// set without sending the invalidations — remote copies survive,
	// untracked and stale.
	MutDropStoreInv Mutation = 1 << iota
	// MutDropInvForward makes an HMG GPU home node drop its entry on a
	// system-home invalidation without forwarding to its GPM sharers.
	MutDropInvForward
	// MutDropEvictInv makes directory entry replacement silently forget
	// the victim's sharers instead of invalidating them.
	MutDropEvictInv
)

// Has reports whether mutation bit m is set.
func (mu Mutation) Has(m Mutation) bool { return mu&m != 0 }

// DirCtrl wraps a directory with the NHCC/HMG transition table (paper
// Table I). Every method runs its event through the compiled rule table
// (rules.go, rendered in DESIGN.md) and writes the outcome back to the
// directory; each returns, as a sharer set, the invalidations its rule
// step sends (Outcome.Sent), and the directory itself never generates
// traffic. A GPM element names a module in the requester's id space; a
// GPU element names a GPU whose home node must forward the
// invalidation (the HMG-only transition of Table I).
type DirCtrl struct {
	Dir *directory.Dir

	// Mutate injects deliberate transition bugs (test-only; see
	// Mutation).
	Mutate Mutation

	// Stats for the Fig. 9/10 profiles.
	StoresSeen       uint64 // remote/local stores consulting the directory
	StoresSharedData uint64 // stores that found a tracked entry with ≥1 sharer
	StoresWithInvs   uint64 // stores that invalidated at least one sharer
	LinesInvByStores uint64 // sharers × granularity lines, store-triggered
	LinesInvByEvicts uint64 // sharers × granularity lines, eviction-triggered
}

// NewDirCtrl builds a Table I controller over a directory.
func NewDirCtrl(cfg directory.Config) *DirCtrl { return &NewDirCtrlSet(cfg, 1)[0] }

// NewDirCtrlSet builds n controllers, each over its own directory of one
// configuration, in three allocations at any n (directory.NewSet's two
// and the controller slab).
func NewDirCtrlSet(cfg directory.Config, n int) []DirCtrl {
	var set DirCtrlSet
	return set.Reset(cfg, n)
}

// DirCtrlSet is the storage of a group of controllers: the controller
// slab and their directories' directory.Set. The zero DirCtrlSet is
// empty.
type DirCtrlSet struct {
	ctrls []DirCtrl
	dirs  directory.Set
}

// Reset returns n controllers with empty statistics over empty
// directories of configuration cfg, as NewDirCtrlSet builds them,
// reusing each slab of the set that is large enough. Controllers the set
// returned before are invalidated.
func (s *DirCtrlSet) Reset(cfg directory.Config, n int) []DirCtrl {
	dirs := s.dirs.Reset(cfg, n)
	s.ctrls = slices.Grow(s.ctrls[:0], n)[:n]
	for i := range s.ctrls {
		s.ctrls[i] = DirCtrl{Dir: &dirs[i]}
	}
	return s.ctrls
}

// tableI is the compiled rule table every DirCtrl executes: the
// hierarchical instantiation, whose rows are NHCC's plus the
// Invalidation column (a flat home never delivers that event or a GPU
// requester, so NHCC runs the same cells).
var tableI = func() *Machine {
	m, err := HMGTable().Compile()
	if err != nil {
		panic(err)
	}
	return m
}()

// RemoteLoad records s as a sharer of the region holding line l,
// allocating the entry (I→V) if needed. When the allocation displaced a
// valid entry, evict holds the sharers to invalidate in its region
// evictRegion.
func (c *DirCtrl) RemoteLoad(l topo.Line, s Requester) (evictRegion directory.Region, evict directory.Sharers) {
	r := c.Dir.RegionOf(l)
	e, st, victim := c.ensure(r)
	c.exec(r, e, st, Event{Kind: RemoteLd, Req: s})
	return c.replace(victim)
}

// RemoteStore records s as a sharer and returns the other sharers to
// invalidate, plus any eviction fan-out from allocating the entry.
func (c *DirCtrl) RemoteStore(l topo.Line, s Requester) (inv directory.Sharers, evictRegion directory.Region, evict directory.Sharers) {
	r := c.Dir.RegionOf(l)
	c.seeStore(r)
	e, st, victim := c.ensure(r)
	out := c.exec(r, e, st, Event{Kind: RemoteSt, Req: s})
	c.countStoreInvs(out)
	evictRegion, evict = c.replace(victim)
	return out.Sent, evictRegion, evict
}

// LocalStore handles a store by the home GPM itself: all sharers are
// invalidated and the entry transitions V→I. Stores that find no entry
// (state I) do nothing.
func (c *DirCtrl) LocalStore(l topo.Line) directory.Sharers {
	r := c.Dir.RegionOf(l)
	e, st := c.seeStore(r)
	out := c.exec(r, e, st, Event{Kind: LocalSt})
	c.countStoreInvs(out)
	return out.Sent
}

// Invalidation handles an invalidation arriving from the system home node
// at a GPU home node (the HMG-only transition): the entry's GPM sharers
// must be forwarded the invalidation, and the entry transitions to I.
func (c *DirCtrl) Invalidation(r directory.Region) directory.Sharers {
	e, st := c.lookup(r)
	return c.exec(r, e, st, Event{Kind: Invalidation}).Sent
}

// DropSharer removes s from the region's sharer set if tracked (the
// optional Downgrade optimization). Entries left with no sharers remain
// valid; they cost a future invalidation only if re-evicted.
func (c *DirCtrl) DropSharer(l topo.Line, s Requester) {
	if e, ok := c.Dir.Lookup(c.Dir.RegionOf(l)); ok {
		e.Sharers = e.Sharers.Without(s.Bit())
	}
}

// exec runs ev through the rule table on region r's entry e (nil when
// absent) in state st and writes the outcome back: →V stores the new
// sharer set, →I drops the entry.
func (c *DirCtrl) exec(r directory.Region, e *directory.Entry, st State, ev Event) Outcome {
	var sh directory.Sharers
	if e != nil {
		sh = e.Sharers
	}
	out := tableI.Step(st, sh, ev, c.Mutate)
	switch {
	case out.Rule.Next == StateV:
		e.Sharers = out.Sharers
	case e != nil:
		c.Dir.Drop(r)
	}
	return out
}

// lookup probes region r's entry and reports its state.
func (c *DirCtrl) lookup(r directory.Region) (*directory.Entry, State) {
	if e, ok := c.Dir.Lookup(r); ok {
		return e, StateV
	}
	return nil, StateI
}

// ensure returns region r's entry, allocating it if absent, with its
// state before the call (I when this call allocated it) and any entry
// the allocation displaced.
func (c *DirCtrl) ensure(r directory.Region) (*directory.Entry, State, directory.Entry) {
	e, allocated, victim := c.Dir.Ensure(r)
	if allocated {
		return e, StateI, victim
	}
	return e, StateV, victim
}

// seeStore counts a store consulting the directory and probes region
// r's entry. Shared data means someone is actually tracked: an entry
// whose sharer set was emptied by DropSharer downgrades represents no
// remote copies, so a store to it does not count toward the Fig. 9
// stores-to-shared-data fraction.
func (c *DirCtrl) seeStore(r directory.Region) (*directory.Entry, State) {
	c.StoresSeen++
	e, st := c.lookup(r)
	if st == StateV && !e.Sharers.IsEmpty() {
		c.StoresSharedData++
	}
	return e, st
}

// countStoreInvs records a store step's intended invalidations.
func (c *DirCtrl) countStoreInvs(out Outcome) {
	if n := out.Inv.Count(); n > 0 {
		c.StoresWithInvs++
		c.LinesInvByStores += uint64(n * c.Dir.Config().GranLines)
	}
}

// replace runs the ReplaceEntry column on an entry the directory
// displaced (and has already removed, which is the rule's →I) and
// returns its region and the invalidations to send. A victim without
// sharers, including the zero Entry of an allocation that displaced
// nothing, has nothing to invalidate. A mutated replacement still
// reports the real victim region.
func (c *DirCtrl) replace(victim directory.Entry) (directory.Region, directory.Sharers) {
	if victim.Sharers.IsEmpty() {
		return 0, directory.Sharers{}
	}
	out := tableI.Step(StateV, victim.Sharers, Event{Kind: ReplaceEntry}, c.Mutate)
	c.LinesInvByEvicts += uint64(out.Inv.Count() * c.Dir.Config().GranLines)
	return victim.Region, out.Sent
}
