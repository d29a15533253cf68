package engine

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewDefaults(t *testing.T) {
	e := New(0)
	if e.FrequencyHz() != DefaultFrequencyHz {
		t.Fatalf("FrequencyHz = %v, want %v", e.FrequencyHz(), DefaultFrequencyHz)
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := New(0)
	var got []int
	e.ScheduleHandler(30, Func(func() { got = append(got, 3) }))
	e.ScheduleHandler(10, Func(func() { got = append(got, 1) }))
	e.ScheduleHandler(20, Func(func() { got = append(got, 2) }))
	e.Run(MaxCycle)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := New(0)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.ScheduleHandler(5, Func(func() { got = append(got, i) }))
	}
	e.Run(MaxCycle)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events ran out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestZeroDelayRunsThisCycle(t *testing.T) {
	e := New(0)
	var at Cycle
	e.ScheduleHandler(7, Func(func() {
		e.ScheduleHandler(0, Func(func() { at = e.Now() }))
	}))
	e.Run(MaxCycle)
	if at != 7 {
		t.Fatalf("zero-delay event ran at %d, want 7", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(0)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			e.ScheduleHandler(2, Func(rec))
		}
	}
	e.ScheduleHandler(1, Func(rec))
	e.Run(MaxCycle)
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if e.Now() != 1+49*2 {
		t.Fatalf("Now = %d, want %d", e.Now(), 1+49*2)
	}
}

func TestRunHorizon(t *testing.T) {
	e := New(0)
	ran := []Cycle(nil)
	for _, d := range []Cycle{5, 10, 15, 20} {
		d := d
		e.ScheduleHandler(d, Func(func() { ran = append(ran, d) }))
	}
	e.Run(12)
	if len(ran) != 2 {
		t.Fatalf("ran %v before horizon 12, want 2 events", ran)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run(MaxCycle)
	if len(ran) != 4 {
		t.Fatalf("ran %v after drain, want all 4", ran)
	}
}

func TestStop(t *testing.T) {
	e := New(0)
	count := 0
	for i := 0; i < 10; i++ {
		e.ScheduleHandler(Cycle(i+1), Func(func() {
			count++
			if count == 3 {
				e.Stop()
			}
		}))
	}
	e.Run(MaxCycle)
	if count != 3 {
		t.Fatalf("count = %d after Stop, want 3", count)
	}
	// A later Run resumes.
	e.Run(MaxCycle)
	if count != 10 {
		t.Fatalf("count = %d after resume, want 10", count)
	}
}

func TestScheduleAt(t *testing.T) {
	e := New(0)
	var at Cycle
	e.ScheduleHandler(10, Func(func() {
		e.ScheduleHandlerAt(25, Func(func() { at = e.Now() }))
	}))
	e.Run(MaxCycle)
	if at != 25 {
		t.Fatalf("event at %d, want 25", at)
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := New(0)
	e.ScheduleHandler(10, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleHandlerAt in the past did not panic")
			}
		}()
		e.ScheduleHandlerAt(5, Func(func() {}))
	}))
	e.Run(MaxCycle)
}

func TestNilCallbackPanics(t *testing.T) {
	for _, at := range []bool{false, true} {
		func() {
			e := New(0)
			defer func() {
				if recover() == nil {
					t.Errorf("nil handler (absolute %v) did not panic", at)
				}
			}()
			if at {
				e.ScheduleHandlerAt(1, nil)
			} else {
				e.ScheduleHandler(1, nil)
			}
		}()
	}
}

func TestSecondsCyclesRoundTrip(t *testing.T) {
	e := New(1e9)
	if got := e.Seconds(2_000_000_000); got != 2.0 {
		t.Fatalf("Seconds = %v, want 2.0", got)
	}
	if got := e.Cycles(1.5); got != 1_500_000_000 {
		t.Fatalf("Cycles = %v, want 1.5e9", got)
	}
	if got := e.Cycles(0); got != 0 {
		t.Fatalf("Cycles(0) = %v, want 0", got)
	}
	if got := e.Cycles(1e-12); got == 0 {
		t.Fatalf("Cycles of tiny positive duration rounded to 0")
	}
}

func TestExecutedCounter(t *testing.T) {
	e := New(0)
	for i := 0; i < 17; i++ {
		e.ScheduleHandler(Cycle(i), Func(func() {}))
	}
	e.Run(MaxCycle)
	if e.Executed != 17 {
		t.Fatalf("Executed = %d, want 17", e.Executed)
	}
}

// TestRandomOrderProperty checks with testing/quick that arbitrary delay
// sets always execute in nondecreasing time order.
func TestRandomOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := New(0)
		var ran []Cycle
		for _, d := range delays {
			d := Cycle(d)
			e.ScheduleHandler(d, Func(func() { ran = append(ran, e.Now()) }))
		}
		e.Run(MaxCycle)
		if !sort.SliceIsSorted(ran, func(i, j int) bool { return ran[i] < ran[j] }) {
			return false
		}
		return len(ran) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism runs the same randomized event cascade twice and
// requires identical execution sequences.
func TestDeterminism(t *testing.T) {
	run := func() []Cycle {
		e := New(0)
		rng := rand.New(rand.NewSource(42))
		var seq []Cycle
		var spawn func(depth int)
		spawn = func(depth int) {
			seq = append(seq, e.Now())
			if depth < 4 {
				n := rng.Intn(3) + 1
				for i := 0; i < n; i++ {
					e.ScheduleHandler(Cycle(rng.Intn(10)), Func(func() { spawn(depth + 1) }))
				}
			}
		}
		for i := 0; i < 5; i++ {
			e.ScheduleHandler(Cycle(rng.Intn(20)), Func(func() { spawn(0) }))
		}
		e.Run(MaxCycle)
		return seq
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic schedule at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestStopStickyBeforeRun pins the sticky-Stop contract: a Stop issued
// with no Run in flight makes the next Run return immediately without
// executing anything, and is consumed by that Run.
func TestStopStickyBeforeRun(t *testing.T) {
	e := New(0)
	count := 0
	for i := 0; i < 5; i++ {
		e.ScheduleHandler(Cycle(i+1), Func(func() { count++ }))
	}
	e.Stop()
	if at := e.Run(MaxCycle); at != 0 {
		t.Fatalf("stopped Run returned %d, want 0", at)
	}
	if count != 0 {
		t.Fatalf("stopped Run executed %d events, want 0", count)
	}
	// The stop was consumed: the next Run resumes.
	e.Run(MaxCycle)
	if count != 5 {
		t.Fatalf("count = %d after resume, want 5", count)
	}
}

// TestStopStickyBetweenRuns pins that a Stop issued between Run calls is
// not silently discarded by the next Run.
func TestStopStickyBetweenRuns(t *testing.T) {
	e := New(0)
	count := 0
	for i := 0; i < 6; i++ {
		e.ScheduleHandler(Cycle(i+1), Func(func() { count++ }))
	}
	e.Run(3)
	if count != 3 {
		t.Fatalf("count = %d after Run(3), want 3", count)
	}
	e.Stop()
	e.Run(MaxCycle)
	if count != 3 {
		t.Fatalf("count = %d: Run discarded a pending Stop", count)
	}
	e.Run(MaxCycle)
	if count != 6 {
		t.Fatalf("count = %d after resume, want 6", count)
	}
}

// TestRunHorizonAdvancesNow pins the idle-tail contract: when Run exits
// because the next event is past the horizon, the clock advances to the
// horizon, so elapsed time derived from the return value includes the
// idle tail.
func TestRunHorizonAdvancesNow(t *testing.T) {
	e := New(0)
	ran := 0
	for _, d := range []Cycle{5, 10, 15, 20} {
		e.ScheduleHandler(d, Func(func() { ran++ }))
	}
	if at := e.Run(12); at != 12 {
		t.Fatalf("Run(12) returned %d, want 12", at)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %d after horizon exit, want 12", e.Now())
	}
	if ran != 2 {
		t.Fatalf("ran %d events before horizon 12, want 2", ran)
	}
	// A drained exit leaves the clock at the last executed event.
	if at := e.Run(MaxCycle); at != 20 {
		t.Fatalf("Drain returned %d, want 20", at)
	}
	// A horizon behind the clock never moves time backwards.
	e.ScheduleHandler(100, Func(func() { ran++ }))
	if at := e.Run(12); at != 20 {
		t.Fatalf("Run(12) with now=20 returned %d, want 20", at)
	}
}

// TestEventSize pins the heap element at a cycle, a sequence number,
// and one Handler (two words): 32 bytes on 64-bit hosts. A second
// callback field would bring back the 40-byte element and the dual
// dispatch in Run.
func TestEventSize(t *testing.T) {
	if got, want := unsafe.Sizeof(event{}), 16+2*unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want %d", got, want)
	}
}

// TestScheduleSteadyStateZeroAlloc pins the zero-alloc contract: once
// the queue storage is warm, scheduling a preallocated Func plus
// dispatch allocates nothing, and neither does a pooled pointer handler.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	e := New(0)
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.ScheduleHandler(Cycle(i%64), Func(fn))
	}
	e.Run(MaxCycle)
	if allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			e.ScheduleHandler(Cycle(i%16), Func(fn))
		}
		e.Run(MaxCycle)
	}); allocs != 0 {
		t.Fatalf("steady-state Func schedule+Drain allocated %v objects per run, want 0", allocs)
	}
	h := &countHandler{}
	if allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			e.ScheduleHandler(Cycle(i%16), h)
		}
		e.Run(MaxCycle)
	}); allocs != 0 {
		t.Fatalf("steady-state ScheduleHandler+Drain allocated %v objects per run, want 0", allocs)
	}
	if h.n == 0 {
		t.Fatal("handler never dispatched")
	}
}

type countHandler struct{ n int }

func (h *countHandler) Handle() { h.n++ }

// selfHandler reschedules itself until its budget runs out — the
// tightest possible schedule/dispatch loop for BenchmarkRunHot.
type selfHandler struct {
	e    *Engine
	left int
}

func (h *selfHandler) Handle() {
	if h.left > 0 {
		h.left--
		h.e.ScheduleHandler(1, h)
	}
}

// BenchmarkSchedule measures steady-state push/pop cost with a warm
// queue and a preallocated callback; allocs/op must be 0.
func BenchmarkSchedule(b *testing.B) {
	e := New(0)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.ScheduleHandler(Cycle(i%64), Func(fn))
	}
	e.Run(MaxCycle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(Cycle(i&63), Func(fn))
		if e.Pending() >= 1024 {
			e.Run(MaxCycle)
		}
	}
	e.Run(MaxCycle)
}

// BenchmarkRunHot measures the full schedule+dispatch cycle through a
// self-rescheduling pooled handler; allocs/op must be 0.
func BenchmarkRunHot(b *testing.B) {
	e := New(0)
	h := &selfHandler{e: e, left: b.N}
	e.ScheduleHandler(1, h)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(MaxCycle)
}

func BenchmarkScheduleDrain(b *testing.B) {
	e := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(Cycle(i%64), Func(func() {}))
		if e.Pending() > 1024 {
			e.Run(MaxCycle)
		}
	}
	e.Run(MaxCycle)
}

// deepDelays is the simulator's measured delay mix, 64 entries weighted
// by frequency: 1–7 cycles (hit and hop latencies) ~28%, 28 ~25%, 46
// ~9%, 96 ~25%, and 127/252 ~13%.
var deepDelays = [64]Cycle{
	1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7,
	28, 28, 28, 28, 28, 28, 28, 28, 28, 28, 28, 28, 28, 28, 28, 28,
	46, 46, 46, 46, 46, 46,
	96, 96, 96, 96, 96, 96, 96, 96, 96, 96, 96, 96, 96, 96, 96, 96,
	127, 127, 127, 127, 252, 252, 252, 252,
}

// deepDriver shares an event budget and a position in deepDelays among
// the handlers of BenchmarkScheduleDeep.
type deepDriver struct {
	e    *Engine
	left int
	pos  int
}

// next returns the next delay; the odd stride 37 interleaves the mix.
func (d *deepDriver) next() Cycle {
	d.pos = (d.pos + 37) & 63
	return deepDelays[d.pos]
}

type deepHandler struct{ d *deepDriver }

func (h *deepHandler) Handle() {
	if d := h.d; d.left > 0 {
		d.left--
		d.e.ScheduleHandler(d.next(), h)
	}
}

// BenchmarkScheduleDeep measures schedule+dispatch at the simulator's
// operating point: about 4,096 events pending, each rescheduled with
// the measured delay mix when it runs. BenchmarkRunHot keeps a single
// pending event, where queue depth costs nothing; this one keeps the
// queue as deep as a matrix run does. allocs/op must be 0.
func BenchmarkScheduleDeep(b *testing.B) {
	const depth = 4096
	d := &deepDriver{e: New(0)}
	hs := make([]deepHandler, depth)
	fill := func(budget int) {
		d.left = budget
		for i := range hs {
			hs[i].d = d
			d.e.ScheduleHandler(d.next(), &hs[i])
		}
	}
	fill(4 * depth) // warm the queue storage
	d.e.Run(MaxCycle)
	fill(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	d.e.Run(MaxCycle)
}

// TestResetMatchesNew: an engine reset with events still pending, near
// and far, drops them unrun and then behaves exactly as a new engine —
// same order, same clock, same counts — without allocating, because it
// keeps the node slab and the far heap's storage.
func TestResetMatchesNew(t *testing.T) {
	schedule := func(e *Engine, got *[]int) {
		for i := 0; i < 300; i++ {
			i := i
			e.ScheduleHandler(Cycle(i*7%(2*wheelSize)), Func(func() { *got = append(*got, i) }))
		}
	}
	var want []int
	fresh := New(2e9)
	schedule(fresh, &want)
	fresh.Run(MaxCycle)

	e := New(0)
	var dropped []int
	schedule(e, &dropped)
	e.Run(wheelSize / 2)
	if e.Pending() == 0 {
		t.Fatal("nothing pending at the reset; test is vacuous")
	}
	ran := len(dropped)
	e.Stop()
	e.Reset(2e9)
	if e.Now() != 0 || e.Pending() != 0 || e.Executed != 0 || e.FrequencyHz() != 2e9 {
		t.Fatalf("after Reset: now %d, %d pending, %d executed, %v Hz", e.Now(), e.Pending(), e.Executed, e.FrequencyHz())
	}
	var got []int
	schedule(e, &got)
	e.Run(MaxCycle)
	if len(dropped) != ran {
		t.Fatalf("%d events dropped by Reset ran afterwards", len(dropped)-ran)
	}
	if len(got) != len(want) || e.Now() != fresh.Now() || e.Executed != fresh.Executed {
		t.Fatalf("reset engine ran %d events to cycle %d, new one %d to cycle %d", len(got), e.Now(), len(want), fresh.Now())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset engine ran event %d at position %d, new one %d", got[i], i, want[i])
		}
	}
	h := &countHandler{}
	if allocs := testing.AllocsPerRun(20, func() {
		e.Reset(0)
		for i := 0; i < 300; i++ {
			e.ScheduleHandler(Cycle(i*7%(2*wheelSize)), h)
		}
		e.Run(MaxCycle)
	}); allocs != 0 {
		t.Fatalf("Reset and a run as large allocated %v objects, want 0", allocs)
	}
}
