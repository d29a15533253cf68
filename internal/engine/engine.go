// Package engine implements the discrete-event simulation kernel that
// drives every timing model in this repository.
//
// The kernel is a single-threaded event loop over scheduled Handlers.
// Components (caches, links, DRAM partitions, SMs) never block; they
// schedule follow-up events at future cycles. Ties at the same cycle
// run in insertion order (same-cycle FIFO), which makes simulations
// fully deterministic for a given input.
//
// Pending events live in two structures, split by delay:
//
//   - a timing wheel — a calendar queue with one bucket per cycle —
//     holds every event scheduled less than wheelSize cycles ahead,
//     which in the simulator is nearly all of them. A bucket is a FIFO
//     list, so scheduling is an O(1) tail link, and an occupancy bitmap
//     finds the next non-empty cycle with a few TrailingZeros64 scans,
//     so dispatch is O(1) as well;
//   - a 4-ary min-heap (the far-event heap) holds the rare events
//     scheduled wheelSize or more cycles ahead (link backlog, DRAM
//     queueing), ordered by cycle and then by insertion sequence.
//
// Run merges the two without storing a sequence number in the wheel:
// a far event for cycle c was scheduled at or before c-wheelSize and a
// wheel event for c after it, so at equal cycles every far event is
// older and runs first (see Run).
//
// There is one dispatch path and two entry points: every event is a
// Handler, scheduled after a delay (ScheduleHandler) or at an absolute
// cycle (ScheduleHandlerAt). Steady-state scheduling is allocation-free:
// wheel buckets link nodes of one shared slab recycled through a free
// list, the heap's event slice is grown once and reused, and callers
// schedule reusable Handlers drawn from their own free lists.
//
// Cycles are the only unit of time inside a simulation. The Engine knows
// the clock frequency solely so that results can be reported in seconds
// and bandwidths in bytes per second.
package engine

import (
	"fmt"
	"math"
	"math/bits"
)

// Cycle is a point in simulated time, measured in clock cycles since the
// start of the simulation.
type Cycle uint64

// MaxCycle is the largest representable simulation time. Run uses it as
// the default horizon.
const MaxCycle = Cycle(math.MaxUint64)

// Handler is a reusable scheduled callback. Simulator components
// implement Handle on a pooled context struct and pass it to
// ScheduleHandler: a pointer in an interface value schedules without any
// heap allocation.
type Handler interface {
	Handle()
}

// Func adapts a plain function to Handler, for callers outside the
// simulator core (tests, probes) that schedule a closure. A func value
// is one pointer word, so converting a Func to Handler does not
// allocate; only building the closure itself may.
type Func func()

// Handle calls f.
func (f Func) Handle() { f() }

// event is a far event, stored by value in the far-event heap. Its
// handler runs exactly once, at the event's cycle.
type event struct {
	at  Cycle
	seq uint64
	h   Handler
}

// before is the strict ordering of the far-event heap: time, then
// insertion order within a cycle (same-cycle FIFO).
func (ev *event) before(other *event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// eventQueue is the far-event heap: a 4-ary min-heap over the event
// values scheduled wheelSize or more cycles ahead. A 4-ary layout halves
// the tree depth of a binary heap, trading a slightly wider min-child
// scan (cheap: the children share a cache line or two) for fewer levels
// of sift memory traffic. The backing slice is the event free list: pops
// shrink the length but keep capacity, so a warmed-up queue never
// allocates again.
type eventQueue struct {
	evs []event
}

func (q *eventQueue) len() int { return len(q.evs) }

// push appends ev and restores the heap order by sifting it up.
//
//lint:allow hotalloc free-list append; growth is amortized and the backing array is reused in steady state
func (q *eventQueue) push(ev event) {
	q.evs = append(q.evs, ev)
	i := len(q.evs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.evs[i].before(&q.evs[parent]) {
			break
		}
		q.evs[i], q.evs[parent] = q.evs[parent], q.evs[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the queue never pins dead handlers for the garbage
// collector.
func (q *eventQueue) pop() event {
	root := q.evs[0]
	n := len(q.evs) - 1
	q.evs[0] = q.evs[n]
	q.evs[n] = event{}
	q.evs = q.evs[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return root
}

// siftDown restores heap order below index i.
func (q *eventQueue) siftDown(i int) {
	n := len(q.evs)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.evs[c].before(&q.evs[min]) {
				min = c
			}
		}
		if !q.evs[min].before(&q.evs[i]) {
			return
		}
		q.evs[i], q.evs[min] = q.evs[min], q.evs[i]
		i = min
	}
}

// wheelSize is the number of one-cycle buckets in the timing wheel, a
// power of two. Events scheduled fewer than wheelSize cycles ahead go
// to the wheel, the rest to the far-event heap. Nearly every delay the
// simulator schedules is below it (all of the hmgperf matrix's; 99.7% of
// a Figs. 8–11 campaign's), so the heap sees only queueing tails.
const (
	wheelSize  = 1024
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// wheelNode is one wheel event: its handler and the slab index of the
// next event in the same bucket (0 ends the list).
type wheelNode struct {
	h    Handler
	next int32
}

// bucket is the FIFO list of one wheel cycle, as slab indices. The zero
// value is the empty list, because slab index 0 is never a live node.
type bucket struct {
	head, tail int32
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// New.
type Engine struct {
	now     Cycle
	seq     uint64 // insertion sequence of far events
	freqHz  float64
	stopped bool

	// The timing wheel. Every wheel event's cycle lies in
	// [now, now+wheelSize), so bucket at&wheelMask holds the events of
	// exactly one cycle; occ has bit i set iff bucket i is non-empty.
	wheel    [wheelSize]bucket
	occ      [wheelWords]uint64
	wheelLen int
	// nodes is the slab every bucket links through; free heads the list
	// of recycled nodes. Slot 0 is reserved so that index 0 means "none".
	nodes []wheelNode
	free  int32

	// far holds the events scheduled wheelSize or more cycles ahead.
	far eventQueue

	// Executed counts events that have run, for speed reporting.
	Executed uint64
}

// DefaultFrequencyHz is the 1.3 GHz GPU clock from Table II of the paper.
const DefaultFrequencyHz = 1.3e9

// New returns an Engine with the given clock frequency in Hz. A
// non-positive frequency falls back to DefaultFrequencyHz.
func New(freqHz float64) *Engine {
	e := &Engine{}
	e.Reset(freqHz)
	return e
}

// Reset returns e to the state New(freqHz) builds — cycle zero, nothing
// pending, nothing executed — keeping the node slab and the far-event
// heap's storage for reuse. Pending events are dropped unrun: their
// handlers belong to pools their owners reset along with the engine.
func (e *Engine) Reset(freqHz float64) {
	if freqHz <= 0 {
		freqHz = DefaultFrequencyHz
	}
	clear(e.nodes)
	clear(e.far.evs)
	*e = Engine{freqHz: freqHz, nodes: e.nodes[:0], far: eventQueue{evs: e.far.evs[:0]}}
}

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// FrequencyHz returns the simulated clock frequency.
func (e *Engine) FrequencyHz() float64 { return e.freqHz }

// Seconds converts a cycle count to wall-clock seconds at the simulated
// frequency.
func (e *Engine) Seconds(c Cycle) float64 { return float64(c) / e.freqHz }

// Cycles converts a duration in seconds to a whole number of cycles,
// rounding up so that a non-zero duration never becomes zero cycles.
func (e *Engine) Cycles(seconds float64) Cycle {
	if seconds <= 0 {
		return 0
	}
	return Cycle(math.Ceil(seconds * e.freqHz))
}

// ScheduleHandler runs h.Handle() after delay cycles. A zero delay runs
// it later in the current cycle, after all previously scheduled work for
// this cycle. It performs no heap allocation when h is a pooled pointer
// context.
func (e *Engine) ScheduleHandler(delay Cycle, h Handler) {
	if h == nil {
		panic("engine: ScheduleHandler called with nil handler")
	}
	at := e.deadline(delay)
	if delay >= wheelSize {
		e.seq++
		e.far.push(event{at: at, seq: e.seq, h: h})
		return
	}
	n := e.newNode(h)
	slot := at & wheelMask
	b := &e.wheel[slot]
	if b.head == 0 {
		b.head = n
		e.occ[slot/64] |= 1 << (slot % 64)
	} else {
		e.nodes[b.tail].next = n
	}
	b.tail = n
	e.wheelLen++
}

// newNode returns the slab index of a node holding h, recycling a freed
// node when one exists.
//
//lint:allow hotalloc slab append; growth is amortized and freed nodes are recycled in steady state
func (e *Engine) newNode(h Handler) int32 {
	if n := e.free; n != 0 {
		e.free = e.nodes[n].next
		e.nodes[n] = wheelNode{h: h}
		return n
	}
	if len(e.nodes) == 0 {
		e.nodes = append(e.nodes, wheelNode{}) // slot 0 is the nil index
	}
	if len(e.nodes) > math.MaxInt32 {
		panic("engine: more than MaxInt32 events pending in the timing wheel")
	}
	e.nodes = append(e.nodes, wheelNode{h: h})
	return int32(len(e.nodes) - 1)
}

// nextWheelCycle returns the cycle of the earliest wheel event. The
// wheel must be non-empty. The bitmap is scanned circularly from bucket
// now&wheelMask, so bucket offset d from there is cycle now+d.
func (e *Engine) nextWheelCycle() Cycle {
	start := e.now & wheelMask
	w := start / 64
	if word := e.occ[w] >> (start % 64); word != 0 {
		return e.now + Cycle(bits.TrailingZeros64(word))
	}
	// off is the distance from now to the first bucket of word w+i.
	// The last iteration revisits word w, whose bits at and above start
	// were just found clear, so only its wrapped-around low bits remain.
	off := 64 - start%64
	for i := Cycle(1); i <= wheelWords; i++ {
		if word := e.occ[(w+i)%wheelWords]; word != 0 {
			return e.now + off + Cycle(bits.TrailingZeros64(word))
		}
		off += 64
	}
	panic("engine: timing wheel count and occupancy bitmap disagree")
}

// popWheel unlinks and returns the head handler of cycle at's bucket,
// returning its node to the free list.
func (e *Engine) popWheel(at Cycle) Handler {
	slot := at & wheelMask
	b := &e.wheel[slot]
	n := b.head
	node := &e.nodes[n]
	h := node.h
	b.head = node.next
	if b.head == 0 {
		b.tail = 0
		e.occ[slot/64] &^= 1 << (slot % 64)
	}
	node.h = nil // do not pin the handler for the garbage collector
	node.next = e.free
	e.free = n
	e.wheelLen--
	return h
}

// deadline converts a delay to an absolute cycle, panicking on overflow.
func (e *Engine) deadline(delay Cycle) Cycle {
	at := e.now + delay
	if at < e.now {
		panic(fmt.Sprintf("engine: schedule overflow at cycle %d + %d", e.now, delay))
	}
	return at
}

// ScheduleHandlerAt runs h.Handle() at the absolute cycle at, which must
// not be in the past.
func (e *Engine) ScheduleHandlerAt(at Cycle, h Handler) {
	if at < e.now {
		panic(fmt.Sprintf("engine: ScheduleHandlerAt(%d) in the past (now %d)", at, e.now))
	}
	e.ScheduleHandler(at-e.now, h)
}

// Pending reports the number of events waiting to run.
func (e *Engine) Pending() int { return e.wheelLen + e.far.len() }

// Stop makes the engine's Run loop return after the in-flight event
// completes. Stop is sticky until observed: if no Run is in flight, the
// next Run call returns immediately without executing anything. The Run
// call that observes the stop consumes it, so subsequent Run calls
// resume normally.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue drains, Stop is
// observed, or the next event would be after horizon. It returns the
// simulation time at exit:
//
//   - horizon exit: now has advanced to horizon (idle tail included), so
//     callers deriving elapsed time from the return value see the whole
//     window they asked for;
//   - queue drained: now is the time of the last executed event — no
//     further work exists, so simulated time stops with it (so Run with
//     a MaxCycle horizon returns the time the queue drained rather than
//     teleporting the clock);
//   - Stop observed: now is the time of the stopping event (or unchanged
//     for a stop pending at entry), and the stop is consumed.
func (e *Engine) Run(horizon Cycle) Cycle {
	for !e.stopped {
		fromFar := e.far.len() > 0
		var at Cycle
		if e.wheelLen > 0 {
			at = e.nextWheelCycle()
			// The wheel stores no sequence number, yet this comparison
			// keeps the global (cycle, insertion) order. Within a
			// bucket, FIFO order is insertion order. Across the two
			// structures, a far event for cycle c was scheduled at some
			// now <= c-wheelSize and a wheel event for c at some
			// now > c-wheelSize. Scheduling time never decreases, so at
			// an equal cycle every far event is older than every wheel
			// event and must run first.
			fromFar = fromFar && e.far.evs[0].at <= at
		} else if !fromFar {
			return e.now
		}
		if fromFar {
			at = e.far.evs[0].at
		}
		if at > horizon {
			if horizon > e.now {
				e.now = horizon
			}
			return e.now
		}
		var h Handler
		if fromFar {
			h = e.far.pop().h
		} else {
			h = e.popWheel(at)
		}
		e.now = at
		e.Executed++
		h.Handle()
	}
	e.stopped = false // the stop is consumed by the Run that observed it
	return e.now
}
