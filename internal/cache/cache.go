// Package cache implements the set-associative caches used for GPU L1s
// and the distributed L2 slices: LRU replacement, write-through or
// write-back policies, predicate-based bulk invalidation (for software
// coherence's acquire semantics), and optional sparse per-word values so
// that the coherence protocols can be checked functionally, not just for
// timing.
package cache

import (
	"fmt"
	"math"
	"slices"

	"hmg/internal/topo"
)

// WordSize is the granularity of value tracking, in bytes.
const WordSize = 4

// WordOf returns the line-relative word index of an address.
func WordOf(a topo.Addr, lineSize int) uint16 {
	return uint16((uint64(a) % uint64(lineSize)) / WordSize)
}

// Entry is one cache line's metadata: a pointer-free 16-byte record,
// so a cache's entry slab is never scanned by the garbage collector.
// Tracked word values live beside the entries, in the cache's side
// table (Values).
type Entry struct {
	Line topo.Line
	// lru is the line's LRU stamp; stamps within a set are distinct.
	lru   uint32
	Valid bool
	Dirty bool
}

// Config sizes a cache.
type Config struct {
	CapacityBytes int
	LineSize      int
	Ways          int
}

// Validate reports whether the configuration describes a realizable
// cache.
func (c Config) Validate() error {
	switch {
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: LineSize %d must be a positive power of two", c.LineSize)
	case c.Ways <= 0:
		return fmt.Errorf("cache: Ways %d must be positive", c.Ways)
	case c.CapacityBytes < c.LineSize*c.Ways:
		return fmt.Errorf("cache: capacity %d smaller than one set (%d)", c.CapacityBytes, c.LineSize*c.Ways)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Hits, Misses  uint64
	Fills, Evicts uint64
	Invalidations uint64 // lines invalidated individually
	WriteHits     uint64
	WriteMisses   uint64
}

// Cache is a set-associative cache with true-LRU replacement within each
// set. It is a passive structure: timing is applied by its controller.
// Its entries live in one flat array, set-major: set s holds
// entries[s*ways : (s+1)*ways].
type Cache struct {
	cfg     Config
	entries []Entry
	ways    int
	numSets uint64
	// clock is the LRU stamp source. It is 32 bits wide; before it
	// wraps, renumber rewrites every set's stamps to their ranks.
	clock  uint32
	filled int

	// values is the side table of tracked word values: a sparse
	// word-to-value map per resident line, absent words taking the
	// backing store's value. It stays nil until the first value is
	// recorded, so only value-tracking runs ever build one. A line's
	// values leave with it: Invalidate and InvalidateAll drop them,
	// and Fill hands an evicted line's to its caller.
	values map[topo.Line]map[uint16]uint64

	Stats Stats
}

// New builds a cache; it panics on an invalid configuration because
// configurations are validated at system construction.
func New(cfg Config) *Cache { return &NewSet(cfg, 1)[0] }

// NewSet builds n caches of one configuration in two allocations at any
// n: the caches share one Cache slab, and each keeps its entries in its
// own full-capacity window of one shared Entry slab. It panics on an
// invalid configuration.
func NewSet(cfg Config, n int) []Cache {
	var set Set
	return set.Reset(cfg, n)
}

// Set is the storage of a group of caches: the Cache slab and the Entry
// slab NewSet builds them from. The zero Set is empty.
type Set struct {
	caches  []Cache
	entries []Entry
}

// Reset returns n empty caches of configuration cfg, as NewSet builds
// them, reusing each of the set's slabs that is large enough. Caches
// the set returned before are invalidated. It panics on an invalid
// configuration.
func (s *Set) Reset(cfg Config, n int) []Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.CapacityBytes / (cfg.LineSize * cfg.Ways)
	size := numSets * cfg.Ways
	s.caches = slices.Grow(s.caches[:0], n)[:n]
	s.entries = slices.Grow(s.entries[:0], n*size)[:n*size]
	clear(s.entries)
	for i := range s.caches {
		s.caches[i] = Cache{
			cfg:     cfg,
			entries: s.entries[i*size : (i+1)*size : (i+1)*size],
			ways:    cfg.Ways,
			numSets: uint64(numSets),
		}
	}
	return s.caches
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Lines returns the number of currently valid lines.
func (c *Cache) Lines() int { return c.filled }

// setOf returns line l's set as a full-capacity sub-slice of the flat
// entry array.
func (c *Cache) setOf(l topo.Line) []Entry {
	lo := int(uint64(l)%c.numSets) * c.ways
	return c.entries[lo : lo+c.ways : lo+c.ways]
}

// Lookup probes the cache. On a hit it refreshes LRU state and returns
// the entry; the pointer stays valid until the next Fill or invalidation
// touching its set.
func (c *Cache) Lookup(l topo.Line) (*Entry, bool) {
	set := c.setOf(l)
	for i := range set {
		if set[i].Valid && set[i].Line == l {
			set[i].lru = c.tick()
			c.Stats.Hits++
			return &set[i], true
		}
	}
	c.Stats.Misses++
	return nil, false
}

// Peek probes without touching LRU or stats, for profiling and tests.
func (c *Cache) Peek(l topo.Line) (*Entry, bool) {
	set := c.setOf(l)
	for i := range set {
		if set[i].Valid && set[i].Line == l {
			return &set[i], true
		}
	}
	return nil, false
}

// Fill inserts a line, evicting the LRU way of its set if necessary.
// When a valid line was displaced, victim is a copy of its entry and
// values are its tracked word values (nil when none were tracked);
// otherwise victim is the zero Entry, whose Valid is false. Filling an
// already-present line just refreshes it.
func (c *Cache) Fill(l topo.Line) (victim Entry, values map[uint16]uint64) {
	set := c.setOf(l)
	stamp := c.tick()
	for i := range set {
		if set[i].Valid && set[i].Line == l {
			set[i].lru = stamp
			return Entry{}, nil
		}
	}
	// Choose an invalid way first, else the LRU valid way.
	victimIdx := -1
	for i := range set {
		if !set[i].Valid {
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
		victim = set[victimIdx] // copy out before overwrite
		if c.values != nil {
			values = c.values[victim.Line]
			delete(c.values, victim.Line)
		}
		c.Stats.Evicts++
		c.filled--
	}
	set[victimIdx] = Entry{Line: l, Valid: true, lru: stamp}
	c.filled++
	c.Stats.Fills++
	return victim, values
}

// Invalidate drops a single line if present, returning whether it was.
func (c *Cache) Invalidate(l topo.Line) bool {
	set := c.setOf(l)
	for i := range set {
		if set[i].Valid && set[i].Line == l {
			set[i] = Entry{}
			delete(c.values, l)
			c.filled--
			c.Stats.Invalidations++
			return true
		}
	}
	return false
}

// InvalidateRegion drops every cached line in [first, first+n), the
// fan-out of a coarse-grained directory invalidation. It returns the
// number of lines dropped.
func (c *Cache) InvalidateRegion(first topo.Line, n int) int {
	dropped := 0
	for i := 0; i < n; i++ {
		if c.Invalidate(first + topo.Line(i)) {
			dropped++
		}
	}
	return dropped
}

// InvalidateAll drops every line and its values: the bulk
// invalidation of software coherence's acquires and kernel boundaries.
// Invalid entries are always zero, so clearing the whole array drops
// exactly the valid ones.
func (c *Cache) InvalidateAll() {
	clear(c.entries)
	c.filled = 0
	clear(c.values)
}

// FlushDirty appends a copy of every dirty entry to dst, in set/way
// order, and clears their dirty bits — the release-operation flush of
// write-back configurations. Entries stay valid (clean) in the cache.
//
//lint:allow hotalloc append into the caller's reused buffer; growth is amortized
func (c *Cache) FlushDirty(dst []Entry) []Entry {
	for i := range c.entries {
		if e := &c.entries[i]; e.Valid && e.Dirty {
			e.Dirty = false
			dst = append(dst, *e)
		}
	}
	return dst
}

// ForEach visits every valid entry, in set/way order.
func (c *Cache) ForEach(fn func(*Entry)) {
	for i := range c.entries {
		if c.entries[i].Valid {
			fn(&c.entries[i])
		}
	}
}

// tick advances the LRU clock and returns the new stamp. A clock about
// to wrap is renumbered first, so stamps keep growing.
func (c *Cache) tick() uint32 {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber replaces every valid entry's LRU stamp with its rank in its
// set (1 for the least recently used) and restarts the clock after the
// highest rank. Victim choice compares stamps only within a set, so it
// is unchanged. Each set is ranked in place, oldest first: stamps in a
// set are distinct and positive, so the j-th oldest stamp is at least j
// and no rank handed out can pass the stamp the next search starts
// above.
func (c *Cache) renumber() {
	for lo := 0; lo < len(c.entries); lo += c.ways {
		set := c.entries[lo : lo+c.ways]
		last := uint32(0)
		for rank := uint32(1); ; rank++ {
			oldest := -1
			for i := range set {
				if set[i].Valid && set[i].lru > last && (oldest < 0 || set[i].lru < set[oldest].lru) {
					oldest = i
				}
			}
			if oldest < 0 {
				break
			}
			last, set[oldest].lru = set[oldest].lru, rank
		}
	}
	c.clock = uint32(c.ways)
}

// Values returns the tracked word values of resident line l, or nil
// when none are tracked. The map is the cache's own: callers only read
// it, and it stops changing once the line leaves the cache.
func (c *Cache) Values(l topo.Line) map[uint16]uint64 { return c.values[l] }

// Value returns the tracked value of one word of resident line l, if
// present.
func (c *Cache) Value(l topo.Line, word uint16) (uint64, bool) {
	v, ok := c.values[l][word]
	return v, ok
}

// lineValues returns resident line l's value map, creating it (and the
// side table) with room for n words.
//
//lint:allow hotalloc sparse value-tracking side table; allocated on the first tracked write or fill of a line
func (c *Cache) lineValues(l topo.Line, n int) map[uint16]uint64 {
	if c.values == nil {
		c.values = make(map[topo.Line]map[uint16]uint64)
	}
	m := c.values[l]
	if m == nil {
		m = make(map[uint16]uint64, n)
		c.values[l] = m
	}
	return m
}

// SetValue records a word value on resident line l.
func (c *Cache) SetValue(l topo.Line, word uint16, v uint64) {
	c.lineValues(l, 4)[word] = v
}

// MergeFrom copies all tracked words of src onto resident line l,
// overwriting its view. Fill responses use it to install home-node data.
func (c *Cache) MergeFrom(l topo.Line, src map[uint16]uint64) {
	if len(src) == 0 {
		return
	}
	m := c.lineValues(l, len(src))
	//lint:allow determinism word-keyed map copy; every word lands on its own key, so order cannot matter
	for w, v := range src {
		m[w] = v
	}
}
