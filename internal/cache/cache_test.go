package cache

import (
	"math/rand"
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
func TestNewAllocatesFlat(t *testing.T) {
	for _, sets := range []int{1, 16, 4096} {
		cfg := Config{CapacityBytes: sets * 128 * 4, LineSize: 128, Ways: 4}
		var c *Cache
		if n := testing.AllocsPerRun(5, func() { c = New(cfg) }); n > 2 {
			t.Errorf("New with %d sets: %v allocations, want at most 2", sets, n)
		}
		if c.Sets() != sets {
			t.Errorf("Sets() = %d, want %d", c.Sets(), sets)
		}
	}
}

// TestNewSetSharesTwoSlabs: n caches cost two allocations at any n, and
// each behaves as a cache of its own — filling and flushing one leaves
// its neighbours in the shared entry slab untouched.
func TestNewSetSharesTwoSlabs(t *testing.T) {
	cfg := Config{CapacityBytes: 2 * 128 * 2, LineSize: 128, Ways: 2} // 2 sets
	for _, n := range []int{1, 3, 64} {
		if a := testing.AllocsPerRun(5, func() { NewSet(cfg, n) }); a != 2 {
			t.Errorf("NewSet(%d): %v allocations, want 2", n, a)
		}
	}
	cs := NewSet(cfg, 3)
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
		c.InvalidateWhere(nil)
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
	numSets := topo.Line(c.Sets())
	// Four lines mapping to set 0.
	lines := []topo.Line{0, numSets, 2 * numSets, 3 * numSets}
	for _, l := range lines {
		c.Fill(l)
	}
	c.Lookup(lines[0]) // refresh line 0; LRU is now lines[1]
	_, victim := c.Fill(4 * numSets)
	if victim == nil || victim.Line != lines[1] {
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
	e1, _ := c.Fill(7)
	e1.Dirty = true
	e1.SetValue(3, 99)
	e2, victim := c.Fill(7)
	if victim != nil {
		t.Fatal("refill of present line reported a victim")
	}
	if !e2.Dirty {
		t.Fatal("refill cleared dirty bit")
	}
	if v, ok := e2.Value(3); !ok || v != 99 {
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

func TestInvalidateWhere(t *testing.T) {
	c := New(smallCfg())
	for l := topo.Line(0); l < 16; l++ {
		c.Fill(l)
	}
	odd := c.InvalidateWhere(func(l topo.Line) bool { return l%2 == 1 })
	if odd != 8 {
		t.Fatalf("dropped %d odd lines, want 8", odd)
	}
	rest := c.InvalidateWhere(nil)
	if rest != 8 {
		t.Fatalf("bulk dropped %d, want 8", rest)
	}
	if c.Stats.BulkInvalLines != 16 {
		t.Fatalf("BulkInvalLines = %d", c.Stats.BulkInvalLines)
	}
}

// TestFlushDirty: FlushDirty appends the dirty entries to the caller's
// buffer in set/way order, clears their dirty bits, and keeps them valid.
func TestFlushDirty(t *testing.T) {
	c := New(smallCfg())
	for _, l := range []topo.Line{3, 11, 4, 1} { // 3 and 11 share set 3
		e, _ := c.Fill(l)
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
	var e Entry
	if _, ok := e.Value(0); ok {
		t.Fatal("value present on fresh entry")
	}
	e.SetValue(2, 77)
	if v, ok := e.Value(2); !ok || v != 77 {
		t.Fatal("SetValue lost value")
	}
	e.MergeFrom(map[uint16]uint64{2: 100, 5: 50})
	if v, _ := e.Value(2); v != 100 {
		t.Fatal("MergeFrom did not overwrite")
	}
	if v, ok := e.Value(5); !ok || v != 50 {
		t.Fatal("MergeFrom did not add")
	}
	e.MergeFrom(nil) // no-op
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
		maxLines := c.Sets() * c.Config().Ways
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
	sets := topo.Line(c.Sets())
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
