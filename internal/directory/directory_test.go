package directory

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func smallCfg() Config { return Config{Entries: 32, Ways: 4, GranLines: 4} }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Entries: 0, Ways: 4, GranLines: 4},
		{Entries: 32, Ways: 0, GranLines: 4},
		{Entries: 33, Ways: 4, GranLines: 4},
		{Entries: 32, Ways: 4, GranLines: 3},
		{Entries: 32, Ways: 4, GranLines: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	c := DefaultConfig()
	if c.Entries != 12*1024 {
		t.Errorf("Entries = %d, want 12K", c.Entries)
	}
	if c.GranLines != 4 {
		t.Errorf("GranLines = %d, want 4 (each entry covers 4 cache lines)", c.GranLines)
	}
}

func TestSharerBits(t *testing.T) {
	var s Sharers
	s = s.With(GPMBit(2)).With(GPUBit(1))
	if !s.Has(GPMBit(2)) || !s.Has(GPUBit(1)) {
		t.Fatal("Has failed on set bits")
	}
	if s.Has(GPMBit(1)) || s.Has(GPUBit(2)) {
		t.Fatal("Has true on unset bits")
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d", s.Count())
	}
	s = s.Without(GPMBit(2))
	if s.Has(GPMBit(2)) || s.Count() != 1 {
		t.Fatal("Without failed")
	}
	if s.IsEmpty() {
		t.Fatal("IsEmpty true with a GPU sharer")
	}
}

func TestSharerIteration(t *testing.T) {
	s := GPMBit(0).With(GPMBit(3)).With(GPUBit(2)).With(GPUBit(5))
	var popped []string
	for rest := s; !rest.IsEmpty(); {
		id, isGPU := rest.Pop()
		popped = append(popped, fmt.Sprint(id, isGPU))
	}
	if got := strings.Join(popped, " "); got != "0 false 3 false 2 true 5 true" {
		t.Fatalf("Pop order = %s", got)
	}
	if s.String() != "[GPM0 GPM3 GPU2 GPU5]" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSharerBitPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { GPMBit(-1) },
		func() { GPMBit(MaxSharerIDs) },
		func() { GPUBit(-1) },
		func() { GPUBit(MaxSharerIDs) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range sharer bit did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRegionMapping(t *testing.T) {
	d := New(smallCfg())
	if d.RegionOf(0) != 0 || d.RegionOf(3) != 0 || d.RegionOf(4) != 1 {
		t.Fatal("RegionOf wrong at granularity 4")
	}
	if d.FirstLine(2) != 8 {
		t.Fatalf("FirstLine(2) = %d", d.FirstLine(2))
	}
}

func TestEnsureAllocatesAndTracks(t *testing.T) {
	d := New(smallCfg())
	e, allocated, victim := d.Ensure(10)
	if !allocated || victim != (Entry{}) {
		t.Fatalf("Ensure on an empty set: allocated %v, victim %+v", allocated, victim)
	}
	if _, allocated, _ := d.Ensure(10); allocated {
		t.Fatal("Ensure of a present entry allocated")
	}
	e.Sharers = e.Sharers.With(GPMBit(1))
	e2, ok := d.Lookup(10)
	if !ok || !e2.Sharers.Has(GPMBit(1)) {
		t.Fatal("Lookup lost sharer state")
	}
	if d.Live() != 1 {
		t.Fatalf("Live = %d", d.Live())
	}
}

func TestEvictionReturnsVictimWithSharers(t *testing.T) {
	d := New(smallCfg()) // 8 sets × 4 ways
	sets := Region(d.cfg.Entries / d.cfg.Ways)
	// Fill set 0 with 4 regions, each with sharers.
	for i := 0; i < 4; i++ {
		e, _, v := d.Ensure(Region(i) * sets)
		if v.valid {
			t.Fatal("unexpected victim while filling")
		}
		e.Sharers = GPMBit(i)
	}
	_, _, victim := d.Ensure(4 * sets)
	if !victim.valid {
		t.Fatal("no victim from full set")
	}
	if victim.Region != 0 || !victim.Sharers.Has(GPMBit(0)) {
		t.Fatalf("victim = %+v, want region 0 with GPM0", victim)
	}
	if d.Stats.Evicts != 1 {
		t.Fatalf("Evicts = %d", d.Stats.Evicts)
	}
}

func TestLRUVictimChoice(t *testing.T) {
	d := New(smallCfg())
	sets := Region(d.cfg.Entries / d.cfg.Ways)
	for i := 0; i < 4; i++ {
		d.Ensure(Region(i) * sets)
	}
	d.Lookup(0) // refresh region 0
	_, _, victim := d.Ensure(9 * sets)
	if !victim.valid || victim.Region != 1*sets {
		t.Fatalf("victim = %+v, want region %d (LRU)", victim, sets)
	}
}

func TestDrop(t *testing.T) {
	d := New(smallCfg())
	d.Ensure(5)
	if !d.Drop(5) {
		t.Fatal("Drop missed present entry")
	}
	if d.Drop(5) {
		t.Fatal("Drop hit absent entry")
	}
	if d.Live() != 0 {
		t.Fatalf("Live=%d", d.Live())
	}
}

func TestForEach(t *testing.T) {
	d := New(smallCfg())
	for r := Region(0); r < 10; r++ {
		d.Ensure(r)
	}
	n := 0
	d.ForEach(func(*Entry) { n++ })
	if n != 10 {
		t.Fatalf("ForEach visited %d, want 10", n)
	}
}

// Property: Live never exceeds capacity and matches a recount.
func TestLiveInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(smallCfg())
		for i := 0; i < 400; i++ {
			r := Region(rng.Intn(64))
			switch rng.Intn(3) {
			case 0, 1:
				d.Ensure(r)
			case 2:
				d.Drop(r)
			}
			if d.Live() > d.cfg.Entries {
				return false
			}
		}
		n := 0
		d.ForEach(func(*Entry) { n++ })
		return n == d.Live()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStorageCost reproduces Section VII-C: 48-bit tags + 1 state bit +
// 6 sharer bits = 55 bits per entry; 12K entries ≈ 84KB per GPM; ~2.7%
// of a 3MB L2 slice.
func TestStorageCost(t *testing.T) {
	sharers, bits := EntryCost(4, 4, true)
	if sharers != 6 || bits != 55 {
		t.Fatalf("EntryCost(4, 4, hierarchical) = %d sharers, %d bits; want 6, 55", sharers, bits)
	}
	total := 12 * 1024 * bits / 8
	if total < 82*1024 || total > 86*1024 {
		t.Fatalf("12K entries = %d bytes, want ≈84KB", total)
	}
	l2Slice := 3 << 20 // 12MB per GPU / 4 GPMs
	frac := float64(total) / float64(l2Slice)
	if frac < 0.025 || frac > 0.029 {
		t.Fatalf("directory cost fraction = %.4f, want ≈2.7%%", frac)
	}
}

// TestSnapshot: region-sorted copies of the valid entries, no stat or
// LRU side effects.
func TestSnapshot(t *testing.T) {
	d := New(Config{Entries: 8, Ways: 2, GranLines: 1})
	for _, r := range []Region{9, 2, 5} {
		e, _, _ := d.Ensure(r)
		e.Sharers = GPMBit(int(r % 3))
	}
	pre := d.Stats
	snap := d.Snapshot()
	if d.Stats != pre {
		t.Fatalf("Snapshot changed stats: %+v → %+v", pre, d.Stats)
	}
	if len(snap) != 3 || snap[0].Region != 2 || snap[1].Region != 5 || snap[2].Region != 9 {
		t.Fatalf("snapshot = %+v, want regions 2,5,9 in order", snap)
	}
	for _, e := range snap {
		if !e.Sharers.Has(GPMBit(int(e.Region % 3))) {
			t.Fatalf("entry %d lost its sharers: %v", e.Region, e.Sharers)
		}
	}
	// Mutating the copies must not touch the directory.
	snap[0].Sharers = Sharers{}
	if e, ok := d.Lookup(2); !ok || e.Sharers.IsEmpty() {
		t.Fatal("snapshot aliases directory storage")
	}
}

func BenchmarkEnsure(b *testing.B) {
	d := New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Ensure(Region(i % 20000))
	}
}
