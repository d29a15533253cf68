package engine

// Queue-equivalence property tests: the Engine — timing wheel plus
// 4-ary far-event heap — must execute events in exactly the order the
// original container/heap implementation did — nondecreasing time,
// same-cycle FIFO by insertion sequence — across random schedules,
// nested scheduling, delays that straddle and lap the wheel, Stop
// interleavings, and horizon-bounded runs that skip empty wheel laps.
// The far-event heap alone is held to the same pop order. The reference
// implementation below is the original queue, kept verbatim (boxed
// *refEvent, stdlib heap) as the executable specification of the
// ordering contract.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap are the original boxed-pointer event queue.
type refEvent struct {
	at  Cycle
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// refQueue drives refHeap with the same schedule/pop API shape the
// Engine's queue has, assigning sequence numbers on push.
type refQueue struct {
	h   refHeap
	seq uint64
}

func (q *refQueue) push(at Cycle, id int) {
	q.seq++
	heap.Push(&q.h, &refEvent{at: at, seq: q.seq, id: id})
}

func (q *refQueue) pop() *refEvent {
	return heap.Pop(&q.h).(*refEvent)
}

// TestQueueMatchesReferenceHeap feeds identical random push/pop streams
// to the optimized queue and the reference heap and requires identical
// pop order, including same-cycle FIFO ties (many pushes share a cycle
// by construction).
func TestQueueMatchesReferenceHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		var opt eventQueue
		var ref refQueue
		var optSeq uint64
		nextID := 0
		push := func(at Cycle) {
			optSeq++
			// The optimized queue carries its payload in the Handler slot;
			// idHandler lets us read back which logical event popped.
			opt.push(event{at: at, seq: optSeq, h: idHandler(nextID)})
			ref.push(at, nextID)
			nextID++
		}
		for step := 0; step < 2000; step++ {
			switch {
			case opt.len() > 0 && rng.Intn(3) == 0:
				got := opt.pop()
				want := ref.pop()
				if got.at != want.at || int(got.h.(idHandler)) != want.id {
					t.Fatalf("trial %d step %d: pop mismatch: optimized (at=%d id=%d), reference (at=%d id=%d)",
						trial, step, got.at, int(got.h.(idHandler)), want.at, want.id)
				}
			default:
				// Cluster cycles heavily so ties are common.
				push(Cycle(rng.Intn(16)))
			}
		}
		for opt.len() > 0 {
			got := opt.pop()
			want := ref.pop()
			if got.at != want.at || int(got.h.(idHandler)) != want.id {
				t.Fatalf("trial %d drain: pop mismatch: optimized (at=%d id=%d), reference (at=%d id=%d)",
					trial, got.at, int(got.h.(idHandler)), want.at, want.id)
			}
		}
		if len(ref.h) != 0 {
			t.Fatalf("trial %d: reference heap still has %d events", trial, len(ref.h))
		}
	}
}

// idHandler tags queue entries with a logical event id for the
// cross-check; Handle is never invoked by these tests.
type idHandler int

func (idHandler) Handle() {}

// refEngine is an event loop with the reference heap as its queue and
// the Engine's documented Run semantics (sticky Stop, horizon advance),
// used to cross-check full execution traces rather than bare pop order.
type refEngine struct {
	now     Cycle
	q       refQueue
	stopped bool
	fns     map[int]func()
	nextID  int
}

func (e *refEngine) schedule(delay Cycle, fn func()) {
	if e.fns == nil {
		e.fns = make(map[int]func())
	}
	id := e.nextID
	e.nextID++
	e.fns[id] = fn
	e.q.push(e.now+delay, id)
}

func (e *refEngine) run(horizon Cycle) Cycle {
	for !e.stopped {
		if len(e.q.h) == 0 {
			return e.now
		}
		if e.q.h[0].at > horizon {
			if horizon > e.now {
				e.now = horizon
			}
			return e.now
		}
		ev := e.q.pop()
		e.now = ev.at
		e.fns[ev.id]()
	}
	e.stopped = false
	return e.now
}

// TestEngineMatchesReferenceEngine runs the same randomized cascade —
// nested schedules, same-cycle ties, random Stop calls from inside
// callbacks, and horizon-bounded Run windows — on the Engine (through
// ScheduleHandler and ScheduleHandlerAt alternately) and on the reference loop, and requires identical execution traces (event
// identity and execution cycle) and identical clock positions after
// every window. The "near" mix keeps every delay inside the timing
// wheel; the "wheel" mix adds delays that straddle the wheel/heap
// boundary (W-1, W, W+1) and lap the wheel (3W+5), with windows that
// jump the clock across empty laps.
func TestEngineMatchesReferenceEngine(t *testing.T) {
	const W = wheelSize
	for _, mix := range []struct {
		name     string
		far      []Cycle // delays drawn with probability 1/4, if any
		horizons []Cycle
	}{
		{"near", nil, []Cycle{4, 9, 17, 17, 30, MaxCycle, MaxCycle}},
		{"wheel", []Cycle{W - 1, W, W + 1, 3*W + 5},
			[]Cycle{4, 9, 17, 17, 30, W - 1, W + 1, 2*W + 7, 5 * W, 8*W + 3, 20 * W, 40 * W, MaxCycle, MaxCycle}},
	} {
		t.Run(mix.name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				testEngineMatchesReference(t, trial, mix.far, mix.horizons)
			}
		})
	}
}

func testEngineMatchesReference(t *testing.T, trial int, far, horizons []Cycle) {
	type rec struct {
		label int
		at    Cycle
	}
	run := func(schedule func(Cycle, func()), clock func() Cycle, stop func(), window func(Cycle) Cycle) []rec {
		var trace []rec
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		delay := func(n int) Cycle {
			if len(far) > 0 && rng.Intn(4) == 0 {
				return far[rng.Intn(len(far))]
			}
			return Cycle(rng.Intn(n))
		}
		var spawn func(label, depth int)
		spawn = func(label, depth int) {
			trace = append(trace, rec{label, clock()})
			if rng.Intn(20) == 0 {
				stop() // random Stop interleavings from inside callbacks
			}
			if depth < 3 {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					child := label*10 + i + 1
					schedule(delay(6), func() { spawn(child, depth+1) })
				}
			}
		}
		for i := 0; i < 6; i++ {
			i := i
			schedule(delay(12), func() { spawn(i+1, 0) })
		}
		// Alternate bounded windows (re-running after any Stop) and
		// record the clock after each as a pseudo-event, so horizon
		// advance and stop consumption are part of the compared trace.
		for _, h := range horizons {
			trace = append(trace, rec{label: -1, at: window(h)})
		}
		return trace
	}

	// The engine side alternates between the relative and the absolute
	// entry point, so both must share one ordering.
	e := New(0)
	calls := 0
	mixed := func(delay Cycle, fn func()) {
		calls++
		if calls%2 == 0 {
			e.ScheduleHandler(delay, Func(fn))
			return
		}
		e.ScheduleHandlerAt(e.Now()+delay, Func(fn))
	}
	got := run(mixed, e.Now, e.Stop, e.Run)
	r := &refEngine{}
	want := run(r.schedule, func() Cycle { return r.now },
		func() { r.stopped = true }, r.run)

	if len(got) != len(want) {
		t.Fatalf("trial %d: trace lengths differ: engine %d, reference %d", trial, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trial %d: traces diverge at %d: engine %+v, reference %+v", trial, i, got[i], want[i])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("trial %d: %d events still pending after the final drain", trial, e.Pending())
	}
}

// TestFarEventRunsBeforeSameCycleWheelEvents pins the ordering argument
// that lets the wheel store no sequence number: events scheduled
// wheelSize or more cycles ahead go to the far-event heap, events
// scheduled later for the same cycle go to the wheel, and at that cycle
// every far event must run before every wheel event, each side in
// insertion order.
func TestFarEventRunsBeforeSameCycleWheelEvents(t *testing.T) {
	const W = wheelSize
	const target = W + 10
	e := New(0)
	var order []string
	mark := func(name string) func() {
		return func() {
			order = append(order, name)
			if e.Now() != target {
				t.Errorf("%s ran at cycle %d, want %d", name, e.Now(), target)
			}
		}
	}
	e.ScheduleHandlerAt(target, Func(mark("far1"))) // delay W+10: far heap
	e.Run(5)
	e.ScheduleHandlerAt(target, Func(mark("far2"))) // delay W+5: far heap
	e.Run(11)
	e.ScheduleHandlerAt(target, Func(mark("wheel1"))) // delay W-1: wheel
	e.Run(W + 3)
	e.ScheduleHandlerAt(target, Func(mark("wheel2"))) // delay 7: wheel
	if e.far.len() != 2 || e.wheelLen != 2 {
		t.Fatalf("far heap holds %d and wheel %d events, want 2 and 2", e.far.len(), e.wheelLen)
	}
	e.Run(MaxCycle)
	want := []string{"far1", "far2", "wheel1", "wheel2"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

// TestQueueOverflowPanics pins that scheduling rejects a delay that
// would wrap the cycle counter, for a Func and for a value handler.
func TestQueueOverflowPanics(t *testing.T) {
	for _, name := range []string{"Func", "ScheduleHandler"} {
		t.Run(name, func(t *testing.T) {
			e := New(0)
			e.ScheduleHandler(10, Func(func() {}))
			e.Run(MaxCycle)
			defer func() {
				if recover() == nil {
					t.Errorf("%s past MaxCycle did not panic", name)
				}
			}()
			if name == "Func" {
				e.ScheduleHandler(MaxCycle, Func(func() {}))
			} else {
				e.ScheduleHandler(MaxCycle, idHandler(0))
			}
		})
	}
}
