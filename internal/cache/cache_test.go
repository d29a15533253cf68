package cache

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"hmg/internal/topo"
)

func smallCfg() Config {
	return Config{CapacityBytes: 8 * 128 * 4, LineSize: 128, Ways: 4} // 8 sets × 4 ways
}

func TestConfigValidate(t *testing.T) {
	if err := smallCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{CapacityBytes: 4096, LineSize: 100, Ways: 4}, // non-pow2 line
		{CapacityBytes: 4096, LineSize: 128, Ways: 0}, // zero ways
		{CapacityBytes: 128, LineSize: 128, Ways: 4},  // smaller than a set
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	New(Config{CapacityBytes: 1, LineSize: 128, Ways: 1})
}

// TestNewAllocatesFlat: a cache is its header plus one flat entry
// array, whatever its set count.
// The race detector adds allocations of its own: under it the count must
// only not grow with the set count.
func TestNewAllocatesFlat(t *testing.T) {
	want := 2.0
	for i, sets := range []int{1, 16, 4096} {
		cfg := Config{CapacityBytes: sets * 128 * 4, LineSize: 128, Ways: 4}
		var c *Cache
		n := testing.AllocsPerRun(5, func() { c = New(cfg) })
		if i == 0 && raceEnabled {
			want = n
		}
		if n > want {
			t.Errorf("New with %d sets: %v allocations, want at most %v", sets, n, want)
		}
		if int(c.numSets) != sets {
			t.Errorf("%d sets, want %d", c.numSets, sets)
		}
	}
}

// TestNewSetSharesTwoSlabs: a zero Set's Reset builds n caches in two
// allocations at any n, and each behaves as a cache of its own —
// filling and flushing one leaves its neighbours in the shared entry
// slab untouched.
func TestNewSetSharesTwoSlabs(t *testing.T) {
	cfg := Config{CapacityBytes: 2 * 128 * 2, LineSize: 128, Ways: 2} // 2 sets
	// The race detector adds allocations of its own: under it the count
	// must only not grow with n.
	want := 2.0
	for i, n := range []int{1, 3, 64} {
		a := testing.AllocsPerRun(5, func() {
			var set Set
			set.Reset(cfg, n)
		})
		if i == 0 && raceEnabled {
			want = a
		}
		if a != want {
			t.Errorf("Set.Reset(%d) on a zero Set: %v allocations, want %v", n, a, want)
		}
	}
	var set Set
	cs := set.Reset(cfg, 3)
	mid := &cs[1]
	for l := topo.Line(0); l < 8; l++ { // overfill both sets
		mid.Fill(l)
	}
	if mid.Lines() != 4 || mid.Stats.Evicts != 4 {
		t.Fatalf("middle cache: %d lines, %d evictions; want 4 and 4", mid.Lines(), mid.Stats.Evicts)
	}
	for _, i := range []int{0, 2} {
		c := &cs[i]
		valid := 0
		c.ForEach(func(*Entry) { valid++ })
		if valid != 0 {
			t.Fatalf("cache %d sees %d of its neighbour's lines", i, valid)
		}
		c.Fill(topo.Line(i))
		c.InvalidateAll()
	}
	if mid.Lines() != 4 || mid.Stats.Hits != 0 {
		t.Fatalf("middle cache: %d lines after its neighbours' fill and flush, want 4", mid.Lines())
	}
	for l := topo.Line(4); l < 8; l++ {
		if _, hit := mid.Peek(l); !hit {
			t.Fatalf("middle cache lost line %d", l)
		}
	}
}

func TestLookupMissThenFillHit(t *testing.T) {
	c := New(smallCfg())
	if _, ok := c.Lookup(42); ok {
		t.Fatal("hit in empty cache")
	}
	c.Fill(42)
	e, ok := c.Lookup(42)
	if !ok || e.Line != 42 {
		t.Fatal("miss after Fill")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 || c.Stats.Fills != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if c.Lines() != 1 {
		t.Fatalf("Lines = %d", c.Lines())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(smallCfg())
	numSets := topo.Line(int(c.numSets))
	// Four lines mapping to set 0.
	lines := []topo.Line{0, numSets, 2 * numSets, 3 * numSets}
	for _, l := range lines {
		c.Fill(l)
	}
	c.Lookup(lines[0]) // refresh line 0; LRU is now lines[1]
	victim, _ := c.Fill(4 * numSets)
	if !victim.Valid || victim.Line != lines[1] {
		t.Fatalf("victim = %+v, want line %d", victim, lines[1])
	}
	if _, ok := c.Peek(lines[0]); !ok {
		t.Fatal("recently used line evicted")
	}
	if _, ok := c.Peek(lines[1]); ok {
		t.Fatal("victim still present")
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	c := New(smallCfg())
	c.Fill(7)
	e1, _ := c.Peek(7)
	e1.Dirty = true
	c.SetValue(7, 3, 99)
	if victim, values := c.Fill(7); victim != (Entry{}) || values != nil {
		t.Fatal("refill of present line reported a victim")
	}
	if e2, _ := c.Peek(7); !e2.Dirty {
		t.Fatal("refill cleared dirty bit")
	}
	if v, ok := c.Value(7, 3); !ok || v != 99 {
		t.Fatal("refill lost data")
	}
	if c.Lines() != 1 {
		t.Fatalf("Lines = %d after double fill", c.Lines())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(smallCfg())
	c.Fill(5)
	if !c.Invalidate(5) {
		t.Fatal("Invalidate missed present line")
	}
	if c.Invalidate(5) {
		t.Fatal("Invalidate hit absent line")
	}
	if c.Lines() != 0 {
		t.Fatalf("Lines = %d", c.Lines())
	}
	if c.Stats.Invalidations != 1 {
		t.Fatalf("Invalidations = %d", c.Stats.Invalidations)
	}
}

func TestInvalidateRegion(t *testing.T) {
	c := New(smallCfg())
	c.Fill(8)
	c.Fill(9)
	c.Fill(11)
	if got := c.InvalidateRegion(8, 4); got != 3 {
		t.Fatalf("InvalidateRegion dropped %d, want 3", got)
	}
	if c.Lines() != 0 {
		t.Fatalf("Lines = %d", c.Lines())
	}
}

// TestInvalidateAll: a flash clear drops every line, and the cache
// fills again from empty, evicting nothing until a set is full.
func TestInvalidateAll(t *testing.T) {
	c := New(smallCfg())
	for l := topo.Line(0); l < 16; l++ {
		c.Fill(l)
	}
	c.InvalidateAll()
	if c.Lines() != 0 {
		t.Fatalf("Lines = %d after a flash clear, want 0", c.Lines())
	}
	for l := topo.Line(0); l < 16; l++ {
		if _, hit := c.Peek(l); hit {
			t.Fatalf("line %d survived the flash clear", l)
		}
	}
	evicts := c.Stats.Evicts
	for l := topo.Line(0); l < 16; l++ {
		if victim, _ := c.Fill(l); victim.Valid {
			t.Fatalf("refill of line %d evicted line %d from a cleared cache", l, victim.Line)
		}
	}
	if c.Lines() != 16 || c.Stats.Evicts != evicts {
		t.Fatalf("refill: %d lines, %d evictions; want 16 and none", c.Lines(), c.Stats.Evicts-evicts)
	}
}

// TestFlushDirty: FlushDirty appends the dirty entries to the caller's
// buffer in set/way order, clears their dirty bits, and keeps them valid.
func TestFlushDirty(t *testing.T) {
	c := New(smallCfg())
	for _, l := range []topo.Line{3, 11, 4, 1} { // 3 and 11 share set 3
		c.Fill(l)
		e, _ := c.Peek(l)
		e.Dirty = l != 4
	}
	buf := c.FlushDirty([]Entry{{Line: 99}})
	want := []topo.Line{99, 1, 3, 11}
	if len(buf) != len(want) {
		t.Fatalf("FlushDirty = %+v, want lines %v", buf, want)
	}
	for i, l := range want {
		if buf[i].Line != l {
			t.Fatalf("FlushDirty = %+v, want lines %v", buf, want)
		}
	}
	for _, l := range want[1:] {
		if e, hit := c.Peek(l); !hit || e.Dirty {
			t.Fatalf("line %d after flush: hit=%v dirty=%v, want a clean hit", l, hit, hit && e.Dirty)
		}
	}
	if again := c.FlushDirty(buf[:0]); len(again) != 0 {
		t.Fatalf("second FlushDirty = %+v, want none", again)
	}
}

func TestEntryValues(t *testing.T) {
	c := New(smallCfg())
	c.Fill(1)
	if _, ok := c.Value(1, 0); ok {
		t.Fatal("value present on fresh entry")
	}
	c.SetValue(1, 2, 77)
	if v, ok := c.Value(1, 2); !ok || v != 77 {
		t.Fatal("SetValue lost value")
	}
	c.MergeFrom(1, map[uint16]uint64{2: 100, 5: 50})
	if v, _ := c.Value(1, 2); v != 100 {
		t.Fatal("MergeFrom did not overwrite")
	}
	if v, ok := c.Value(1, 5); !ok || v != 50 {
		t.Fatal("MergeFrom did not add")
	}
	c.MergeFrom(1, nil) // no-op
}

func TestWordOf(t *testing.T) {
	if WordOf(0, 128) != 0 {
		t.Fatal("WordOf(0)")
	}
	if WordOf(4, 128) != 1 {
		t.Fatal("WordOf(4)")
	}
	if WordOf(128+12, 128) != 3 {
		t.Fatal("WordOf(140)")
	}
}

func TestPeekDoesNotPerturb(t *testing.T) {
	c := New(smallCfg())
	c.Fill(1)
	h, m := c.Stats.Hits, c.Stats.Misses
	c.Peek(1)
	c.Peek(999)
	if c.Stats.Hits != h || c.Stats.Misses != m {
		t.Fatal("Peek changed stats")
	}
}

// Property: the number of valid lines never exceeds capacity, and a
// filled line is always immediately findable.
func TestFillInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(smallCfg())
		maxLines := int(c.numSets) * c.Config().Ways
		for i := 0; i < 500; i++ {
			l := topo.Line(rng.Intn(100))
			switch rng.Intn(3) {
			case 0:
				c.Fill(l)
				if _, ok := c.Peek(l); !ok {
					return false
				}
			case 1:
				c.Lookup(l)
			case 2:
				c.Invalidate(l)
			}
			if c.Lines() > maxLines || c.Lines() < 0 {
				return false
			}
		}
		// Recount valid entries and compare with the running counter.
		count := 0
		c.ForEach(func(*Entry) { count++ })
		return count == c.Lines()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: with W ways, the W most recently touched lines of one set
// are always resident.
func TestLRUWorkingSetProperty(t *testing.T) {
	c := New(smallCfg())
	ways := c.Config().Ways
	sets := topo.Line(int(c.numSets))
	rng := rand.New(rand.NewSource(7))
	var recent []topo.Line
	touch := func(l topo.Line) {
		if _, ok := c.Lookup(l); !ok {
			c.Fill(l)
		}
		for i, r := range recent {
			if r == l {
				recent = append(recent[:i], recent[i+1:]...)
				break
			}
		}
		recent = append(recent, l)
		if len(recent) > ways {
			recent = recent[1:]
		}
	}
	for i := 0; i < 2000; i++ {
		touch(topo.Line(rng.Intn(32)) * sets) // all map to set 0
		for _, r := range recent {
			if _, ok := c.Peek(r); !ok {
				t.Fatalf("recently used line %d not resident (recent=%v)", r, recent)
			}
		}
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(Config{CapacityBytes: 3 << 20, LineSize: 128, Ways: 16})
	for l := topo.Line(0); l < 1024; l++ {
		c.Fill(l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(topo.Line(i & 1023))
	}
}

func BenchmarkFillEvict(b *testing.B) {
	c := New(Config{CapacityBytes: 3 << 20, LineSize: 128, Ways: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(topo.Line(i))
	}
}

// TestCacheEntryPointerFree: an Entry holds no pointers, so entry slabs
// are noscan for the garbage collector, and it is at most 16 bytes.
func TestCacheEntryPointerFree(t *testing.T) {
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.String, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("Entry holds a %v (%v)", typ.Kind(), typ)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type)
			}
		case reflect.Array:
			walk(typ.Elem())
		}
	}
	typ := reflect.TypeOf(Entry{})
	walk(typ)
	if typ.Size() > 16 {
		t.Errorf("Entry is %d bytes, want at most 16", typ.Size())
	}
}

// refLRU is a reference model of one cache's replacement with a 64-bit
// clock that never wraps: it returns the victim line of every Fill (or
// -1 when none was displaced).
type refLRU struct {
	sets, ways int
	lines      [][]int64 // per set, -1 for an invalid way
	stamps     [][]uint64
	clock      uint64
}

func newRefLRU(sets, ways int) *refLRU {
	r := &refLRU{sets: sets, ways: ways}
	for s := 0; s < sets; s++ {
		ls := make([]int64, ways)
		for i := range ls {
			ls[i] = -1
		}
		r.lines = append(r.lines, ls)
		r.stamps = append(r.stamps, make([]uint64, ways))
	}
	return r
}

func (r *refLRU) lookup(l int64) {
	set := int(l) % r.sets
	for i, x := range r.lines[set] {
		if x == l {
			r.clock++
			r.stamps[set][i] = r.clock
		}
	}
}

func (r *refLRU) fill(l int64) int64 {
	set := int(l) % r.sets
	r.clock++
	ls, st := r.lines[set], r.stamps[set]
	for i, x := range ls {
		if x == l {
			st[i] = r.clock
			return -1
		}
	}
	v := slices.Index(ls, -1)
	victim := int64(-1)
	if v < 0 {
		v = 0
		for i := range ls {
			if st[i] < st[v] {
				v = i
			}
		}
		victim = ls[v]
	}
	ls[v], st[v] = l, r.clock
	return victim
}

// TestLRUClockWrap: a cache whose 32-bit LRU clock wraps mid-stream —
// several times — evicts exactly the victims of a 64-bit reference
// clock.
func TestLRUClockWrap(t *testing.T) {
	c := New(smallCfg())
	ref := newRefLRU(int(c.numSets), c.cfg.Ways)
	rng := rand.New(rand.NewSource(3))
	wraps := 0
	for step := 0; step < 20000; step++ {
		if step%1000 == 0 {
			// Force the clock to the edge of its range.
			c.clock = math.MaxUint32 - uint32(rng.Intn(8))
			wraps++
		}
		l := int64(rng.Intn(64))
		if rng.Intn(2) == 0 {
			c.Lookup(topo.Line(l))
			ref.lookup(l)
			continue
		}
		v, _ := c.Fill(topo.Line(l))
		got := int64(-1)
		if v.Valid {
			got = int64(v.Line)
		}
		if want := ref.fill(l); got != want {
			t.Fatalf("step %d (after %d forced wraps): Fill(%d) evicted %d, 64-bit clock evicts %d", step, wraps, l, got, want)
		}
	}
}

// TestValueSideTable: tracked values live beside the entries; they
// survive Lookup and refills, leave with an evicted line (Fill returns
// them), and vanish on Invalidate and InvalidateAll.
func TestValueSideTable(t *testing.T) {
	c := New(smallCfg())
	if c.Values(1) != nil {
		t.Fatal("values before any fill")
	}
	sets := topo.Line(int(c.numSets))
	set0 := []topo.Line{0, sets, 2 * sets, 3 * sets}
	for i, l := range set0 {
		c.Fill(l)
		c.SetValue(l, 1, uint64(100+i))
	}
	c.Lookup(set0[0])
	c.Fill(set0[2])
	for i, l := range set0 {
		if v, ok := c.Value(l, 1); !ok || v != uint64(100+i) {
			t.Fatalf("line %d word 1 = %d, %v after Lookup/refill; want %d", l, v, ok, 100+i)
		}
	}
	// set0[1] is now least recently used: its values leave with it.
	victim, got := c.Fill(4 * sets)
	if !victim.Valid || victim.Line != set0[1] {
		t.Fatalf("victim = %+v, want line %d", victim, set0[1])
	}
	if len(got) != 1 || got[1] != 101 {
		t.Fatalf("victim values = %v, want word 1 = 101", got)
	}
	if c.Values(set0[1]) != nil || c.Values(4*sets) != nil {
		t.Fatal("evicted line's values stayed behind, or the new line inherited them")
	}
	// A refetch of the evicted line starts with no values (and evicts
	// set0[3]).
	c.Fill(set0[1])
	if _, ok := c.Value(set0[1], 1); ok {
		t.Fatal("refetched line kept its evicted values")
	}
	c.Invalidate(set0[0])
	if c.Values(set0[0]) != nil {
		t.Fatal("Invalidate kept the line's values")
	}
	c.Fill(5)
	c.SetValue(5, 0, 9)
	c.InvalidateAll()
	if c.Values(5) != nil || c.Values(set0[2]) != nil {
		t.Fatal("a flash clear kept values")
	}
}

// TestSetResetReusesSlabs: a set reset to a configuration that fits its
// slabs returns empty caches without allocating, and one that does not
// fit still comes back empty.
func TestSetResetReusesSlabs(t *testing.T) {
	big := Config{CapacityBytes: 8 * 128 * 2, LineSize: 128, Ways: 2}
	small := Config{CapacityBytes: 2 * 128 * 4, LineSize: 128, Ways: 4}
	var set Set
	for _, c := range set.Reset(big, 4) {
		for l := topo.Line(0); l < 32; l++ {
			c.Fill(l)
		}
	}
	if a := testing.AllocsPerRun(5, func() { set.Reset(small, 3) }); a != 0 {
		t.Fatalf("Reset within the slabs: %v allocations, want 0", a)
	}
	for _, cs := range [][]Cache{set.Reset(small, 3), set.Reset(big, 6)} {
		for i := range cs {
			if c := &cs[i]; c.Lines() != 0 || c.Stats != (Stats{}) {
				t.Fatalf("cache %d after Reset: %d lines, stats %+v", i, c.Lines(), c.Stats)
			}
			if _, hit := cs[i].Peek(1); hit {
				t.Fatalf("cache %d after Reset still holds line 1", i)
			}
		}
	}
}
