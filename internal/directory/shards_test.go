package directory

import (
	"fmt"
	"testing"
)

// TestShardCountInvariance drives an identical Ensure/Lookup/Drop
// sequence through directories differing only in shard count (including
// more shards than sets, which clamps) and requires bit-identical
// observable behavior: same victims in the same order, same snapshots,
// same statistics, same live count.
func TestShardCountInvariance(t *testing.T) {
	const ops = 4096
	run := func(shards int) ([]Entry, Stats, []Region, int) {
		d := New(Config{Entries: 32, Ways: 4, GranLines: 4, Shards: shards})
		var victims []Region
		seed := uint64(7)
		for op := 0; op < ops; op++ {
			r := Region(splitmix(&seed) % 64) // 4x the 16-set capacity
			switch splitmix(&seed) % 8 {
			case 0: // drop
				d.Drop(r)
			case 1, 2: // probe
				d.Lookup(r)
			default: // allocate and mutate sharers
				e, _, victim := d.Ensure(r)
				if victim.valid {
					victims = append(victims, victim.Region)
				}
				id := int(splitmix(&seed) % MaxSharerIDs) // both bitmap words
				if splitmix(&seed)%2 == 0 {
					e.Sharers = e.Sharers.With(GPMBit(id))
				} else {
					e.Sharers = e.Sharers.With(GPUBit(id))
				}
			}
		}
		return d.Snapshot(), d.Stats, victims, d.Live()
	}

	baseSnap, baseStats, baseVictims, baseLive := run(0)
	if baseStats.Evicts == 0 || len(baseSnap) == 0 {
		t.Fatal("sequence did not exercise eviction; test is vacuous")
	}
	for _, shards := range []int{1, 3, 8, 16, 1000} {
		snap, stats, victims, live := run(shards)
		if stats != baseStats {
			t.Fatalf("Shards=%d stats %+v differ from unsharded %+v", shards, stats, baseStats)
		}
		if live != baseLive {
			t.Fatalf("Shards=%d live %d != %d", shards, live, baseLive)
		}
		if fmt.Sprint(victims) != fmt.Sprint(baseVictims) {
			t.Fatalf("Shards=%d victim sequence diverged", shards)
		}
		if len(snap) != len(baseSnap) {
			t.Fatalf("Shards=%d snapshot has %d entries, want %d", shards, len(snap), len(baseSnap))
		}
		for i := range snap {
			if snap[i].Region != baseSnap[i].Region || snap[i].Sharers != baseSnap[i].Sharers {
				t.Fatalf("Shards=%d snapshot[%d] = %v/%v, want %v/%v", shards, i,
					snap[i].Region, snap[i].Sharers, baseSnap[i].Region, baseSnap[i].Sharers)
			}
		}
	}
}

// TestShardLazyAllocation checks that untouched address slices never
// materialize backing storage: touching one region allocates exactly
// one shard.
func TestShardLazyAllocation(t *testing.T) {
	d := New(Config{Entries: 64, Ways: 4, GranLines: 4, Shards: 16})
	allocated := func() int {
		n := 0
		for _, sh := range d.shards {
			if sh != nil {
				n++
			}
		}
		return n
	}
	if allocated() != 0 {
		t.Fatalf("fresh directory materialized %d shards", allocated())
	}
	d.Ensure(3)
	if allocated() != 1 {
		t.Fatalf("one region touched %d shards, want 1", allocated())
	}
	if _, ok := d.Lookup(3); !ok {
		t.Fatal("entry lost after shard allocation")
	}
}
