// Package directory implements the coherence directories attached to
// every L2 slice. A directory is a set-associative cache of sharer-set
// entries; each entry covers a coarse-grained region of (by default)
// four consecutive cache lines, the optimization the paper evaluates in
// Section VII-B.
//
// The sharer set (sharers.go) is hierarchy-aware (Section V): one id
// space for GPM sharers and another for GPU sharers, so the same
// structure serves NHCC (GPM elements only, global ids) and HMG (local
// GPM elements at both home levels, GPU elements at the system home).
// Entries have exactly the two stable states of paper Table I — an
// entry present in the directory is Valid; transitioning to Invalid
// drops it. No transient states exist.
//
// Directory storage may be sharded by address slice (contiguous ranges
// of set indices; Config.Shards). Sharding is purely organizational —
// the region→set mapping is unchanged and shard backing arrays allocate
// lazily on first touch — so behavior and statistics are bit-for-bit
// identical at any shard count; only the allocation pattern changes.
package directory

import (
	"fmt"
	"slices"
	"sort"

	"hmg/internal/topo"
)

// Region identifies a directory tracking granule: Line / GranLines.
type Region uint64

// Entry is one Valid directory entry.
type Entry struct {
	Region  Region
	Sharers Sharers
	valid   bool
	lru     uint64
}

// Config sizes a directory.
type Config struct {
	// Entries is the total entry count (12K per GPM in Table II).
	Entries int
	// Ways is the set associativity.
	Ways int
	// GranLines is the number of consecutive cache lines covered by one
	// entry (4 in the paper's evaluation).
	GranLines int
	// Shards is the number of address-sliced shards the set storage is
	// split into (0 means 1). Shard backing arrays allocate lazily on
	// first touch; the value never changes lookup results or statistics.
	Shards int
}

// DefaultConfig returns the Table II directory: 12K entries, 4 lines per
// entry, 8-way set associative.
func DefaultConfig() Config { return Config{Entries: 12 * 1024, Ways: 8, GranLines: 4} }

// Validate reports whether the configuration is realizable.
func (c Config) Validate() error {
	switch {
	case c.Entries <= 0:
		return fmt.Errorf("directory: Entries %d must be positive", c.Entries)
	case c.Ways <= 0:
		return fmt.Errorf("directory: Ways %d must be positive", c.Ways)
	case c.Entries%c.Ways != 0:
		return fmt.Errorf("directory: Entries %d not divisible by Ways %d", c.Entries, c.Ways)
	case c.GranLines <= 0 || c.GranLines&(c.GranLines-1) != 0:
		return fmt.Errorf("directory: GranLines %d must be a positive power of two", c.GranLines)
	case c.Shards < 0:
		return fmt.Errorf("directory: Shards %d must not be negative", c.Shards)
	}
	return nil
}

// Stats counts directory events.
type Stats struct {
	Evicts uint64 // entries displaced by capacity/conflict
}

// Dir is a set-associative coherence directory.
type Dir struct {
	cfg Config
	// shards holds one flat entry array per contiguous range of sets,
	// set-major (set i of shard sh is sh[i*Ways : (i+1)*Ways]). A
	// shard's array is allocated on first touch; nil means untouched.
	shards       [][]Entry
	numSets      uint64
	setsPerShard uint64
	clock        uint64
	live         int

	Stats Stats
}

// New builds a directory; it panics on an invalid configuration.
func New(cfg Config) *Dir {
	var set Set
	return &set.Reset(cfg, 1)[0]
}

// Set is the storage of a group of directories: the Dir slab, the slab
// of shard headers they window, and the shard arrays touched so far.
// Shard arrays allocate lazily, per directory. The zero Set is empty.
type Set struct {
	dirs    []Dir
	headers [][]Entry
}

// Reset returns n empty directories of configuration cfg in two
// allocations at any n, reusing each slab of the set that is large
// enough: a shard array touched before stays, emptied, wherever it can
// hold the shard its header now names. Directories the set returned
// before are invalidated. It panics on an invalid configuration.
func (s *Set) Reset(cfg Config, n int) []Dir {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := uint64(cfg.Entries / cfg.Ways)
	shards := uint64(cfg.Shards)
	if shards == 0 {
		shards = 1
	}
	if shards > numSets {
		shards = numSets
	}
	setsPerShard := (numSets + shards - 1) / shards
	per := int((numSets + setsPerShard - 1) / setsPerShard)
	s.dirs = slices.Grow(s.dirs[:0], n)[:n]
	s.headers = slices.Grow(s.headers[:0], n*per)[:n*per]
	for i := range s.dirs {
		d := &s.dirs[i]
		*d = Dir{
			cfg:          cfg,
			numSets:      numSets,
			setsPerShard: setsPerShard,
			shards:       s.headers[i*per : (i+1)*per : (i+1)*per],
		}
		for idx, sh := range d.shards {
			if size := d.shardLen(uint64(idx)); cap(sh) >= size {
				d.shards[idx] = sh[:size]
				clear(d.shards[idx])
			} else {
				d.shards[idx] = nil
			}
		}
	}
	return s.dirs
}

// Config returns the directory's geometry.
func (d *Dir) Config() Config { return d.cfg }

// Live returns the number of Valid entries.
func (d *Dir) Live() int { return d.live }

// RegionOf maps a cache line to its tracking region.
func (d *Dir) RegionOf(l topo.Line) Region { return Region(uint64(l) / uint64(d.cfg.GranLines)) }

// FirstLine returns the first cache line of a region.
func (d *Dir) FirstLine(r Region) topo.Line { return topo.Line(uint64(r) * uint64(d.cfg.GranLines)) }

// setOf resolves a region's set, allocating its shard on first touch.
// The set index is region % numSets exactly as in the unsharded layout;
// the shard is merely which backing array the set lives in.
func (d *Dir) setOf(r Region) []Entry {
	si := uint64(r) % d.numSets
	sh := d.shards[si/d.setsPerShard]
	if sh == nil {
		sh = d.allocShard(si / d.setsPerShard)
	}
	ways := d.cfg.Ways
	lo := int(si%d.setsPerShard) * ways
	return sh[lo : lo+ways : lo+ways]
}

// allocShard materializes one shard's sets in one backing array. The
// last shard may cover fewer sets when shards do not divide numSets
// evenly.
//
//lint:allow hotalloc lazy shard materialization; at most once per shard over the run
func (d *Dir) allocShard(idx uint64) []Entry {
	sh := make([]Entry, d.shardLen(idx))
	d.shards[idx] = sh
	return sh
}

// shardLen returns the number of entries of shard idx.
func (d *Dir) shardLen(idx uint64) int {
	local := d.setsPerShard
	if rem := d.numSets - idx*d.setsPerShard; rem < local {
		local = rem
	}
	return int(local) * d.cfg.Ways
}

// Lookup probes the directory without allocating.
func (d *Dir) Lookup(r Region) (*Entry, bool) {
	set := d.setOf(r)
	for i := range set {
		if set[i].valid && set[i].Region == r {
			d.clock++
			set[i].lru = d.clock
			return &set[i], true
		}
	}
	return nil, false
}

// Ensure returns the entry for region r, allocating it (state I→V) if
// absent, and reports whether it allocated. When the allocation
// displaces a Valid entry, victim is a copy of it, so the caller can
// invalidate its sharers per Table I's "Replace Dir Entry" column;
// otherwise victim is the zero Entry, which has no sharers.
func (d *Dir) Ensure(r Region) (e *Entry, allocated bool, victim Entry) {
	set := d.setOf(r)
	d.clock++
	for i := range set {
		if set[i].valid && set[i].Region == r {
			set[i].lru = d.clock
			return &set[i], false, Entry{}
		}
	}
	victimIdx := -1
	for i := range set {
		if !set[i].valid {
			victimIdx = i
			break
		}
	}
	if victimIdx == -1 {
		victimIdx = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victimIdx].lru {
				victimIdx = i
			}
		}
		victim = set[victimIdx]
		d.Stats.Evicts++
		d.live--
	}
	set[victimIdx] = Entry{Region: r, valid: true, lru: d.clock}
	d.live++
	return &set[victimIdx], true, victim
}

// Drop transitions an entry to Invalid (removing it), per the V→I
// transitions of Table I. It reports whether the entry was present.
func (d *Dir) Drop(r Region) bool {
	set := d.setOf(r)
	for i := range set {
		if set[i].valid && set[i].Region == r {
			set[i] = Entry{}
			d.live--
			return true
		}
	}
	return false
}

// Snapshot returns a copy of every Valid entry sorted by region — a
// deterministic view of the directory state for differs and tests,
// independent of set/way placement and shard count. Unlike Lookup it
// never touches LRU state.
func (d *Dir) Snapshot() []Entry {
	out := make([]Entry, 0, d.live)
	d.ForEach(func(e *Entry) { out = append(out, *e) })
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// ForEach visits every Valid entry in global set-index order (shards
// hold contiguous set ranges, so walking shards in order preserves the
// unsharded iteration order; untouched shards hold nothing).
func (d *Dir) ForEach(fn func(*Entry)) {
	for _, sh := range d.shards {
		for i := range sh {
			if sh[i].valid {
				fn(&sh[i])
			}
		}
	}
}

// EntryCost is the Section VII-C hardware-cost model of one directory
// entry on a machine of gpus GPUs with gpmsPerGPU GPMs each. It returns
// the sharers an entry tracks, one bit each — hierarchical tracking
// names the other GPMs of the home's GPU and the other GPUs (M+N-2),
// flat tracking every other GPM of the machine — and the entry's width
// in bits: 1 state bit, a 48-bit region tag, and the sharer bits.
func EntryCost(gpus, gpmsPerGPU int, hierarchical bool) (sharers, bits int) {
	const tagBits = 48
	sharers = gpus*gpmsPerGPU - 1
	if hierarchical {
		sharers = gpmsPerGPU - 1 + gpus - 1
	}
	return sharers, 1 + tagBits + sharers
}
