package gsim

import "hmg/internal/engine"

// drain tracks completion of asynchronous operations (posted stores,
// background invalidations) with epoch semantics: a waiter registered at
// time T fires once every operation started before T has finished,
// regardless of operations started afterwards. This models release
// fences faithfully — a fence flushes what is in flight when it arrives;
// it does not require global quiescence (which could livelock under
// continuous traffic from other SMs).
type drain struct {
	started  uint64
	finished uint64
	// waiters[head:] are the registered waiters in registration order.
	// Their thresholds never decrease, because started only grows, so
	// the waiters a Finish satisfies are always a prefix.
	waiters []drainWaiter
	head    int
}

type drainWaiter struct {
	threshold uint64
	h         engine.Handler
}

// Start records the launch of one tracked operation.
func (d *drain) Start() { d.started++ }

// Finish records completion of one tracked operation and runs, in
// registration order, the waiters whose epoch has drained. Operations
// must finish exactly once.
func (d *drain) Finish() {
	d.finished++
	if d.finished > d.started {
		panic("gsim: drain finished more operations than started")
	}
	for d.head < len(d.waiters) && d.waiters[d.head].threshold <= d.finished {
		h := d.waiters[d.head].h
		d.waiters[d.head] = drainWaiter{}
		d.head++
		if d.head == len(d.waiters) {
			d.waiters, d.head = d.waiters[:0], 0
		}
		h.Handle()
	}
}

// Wait runs h once all currently started operations have finished;
// immediately if none are outstanding.
//
//lint:allow hotalloc waiter queue append; growth is amortized and the storage is reused once the queue empties, as it does at every drained kernel boundary
func (d *drain) Wait(h engine.Handler) {
	if d.finished >= d.started {
		h.Handle()
		return
	}
	d.waiters = append(d.waiters, drainWaiter{threshold: d.started, h: h})
}

// Pending returns the number of outstanding operations.
func (d *drain) Pending() uint64 { return d.started - d.finished }

// PendingDrains reports the system-wide outstanding posted stores (SM
// store gates toward the system home) and background invalidations
// (directory invAll gates). Both must be zero at a drained kernel
// boundary — the quiescence invariant the conformance checker asserts
// on every EvKernelDrained event.
func (s *System) PendingDrains() (stores, invs uint64) {
	for _, sm := range s.SMs {
		stores += sm.sysHomeGate.Pending()
	}
	for _, g := range s.GPMs {
		invs += g.invAll.Pending()
	}
	return stores, invs
}

// OutstandingFetches counts in-flight line fetches across all GPM
// MSHRs. Every fetch is tied to a load or atomic that must complete
// before its warp retires, so this too must be zero at a drained
// kernel boundary.
func (s *System) OutstandingFetches() int {
	n := 0
	for _, g := range s.GPMs {
		n += g.mshr.entries
	}
	return n
}

// emptied returns a gate with nothing started that keeps d's waiter
// storage; waiters still registered on d are dropped.
func (d *drain) emptied() drain {
	clear(d.waiters)
	return drain{waiters: d.waiters[:0]}
}
