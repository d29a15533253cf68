// Package cache implements the set-associative caches used for GPU L1s
// and the distributed L2 slices: LRU replacement, write-through or
// write-back policies, predicate-based bulk invalidation (for software
// coherence's acquire semantics), and optional sparse per-word values so
// that the coherence protocols can be checked functionally, not just for
// timing.
package cache

import (
	"fmt"

	"hmg/internal/topo"
)

// WordSize is the granularity of value tracking, in bytes.
const WordSize = 4

// WordOf returns the line-relative word index of an address.
func WordOf(a topo.Addr, lineSize int) uint16 {
	return uint16((uint64(a) % uint64(lineSize)) / WordSize)
}

// Entry is one cache line's metadata. Data is nil unless value tracking
// is enabled and a word of the line has been written or filled.
type Entry struct {
	Line  topo.Line
	Valid bool
	Dirty bool
	// Data maps line-relative word index to value. Sparse: absent words
	// take the backing store's value.
	Data map[uint16]uint64
	lru  uint64
}

// Value returns the tracked value of a word, if present.
func (e *Entry) Value(word uint16) (uint64, bool) {
	if e.Data == nil {
		return 0, false
	}
	v, ok := e.Data[word]
	return v, ok
}

// SetValue records a word value on the line.
//
//lint:allow hotalloc sparse value-tracking map; allocated on the first tracked write to a line
func (e *Entry) SetValue(word uint16, v uint64) {
	if e.Data == nil {
		e.Data = make(map[uint16]uint64, 4)
	}
	e.Data[word] = v
}

// MergeFrom copies all tracked words of src into e, overwriting e's view.
// Fill responses use it to install home-node data.
//
//lint:allow hotalloc sparse value-tracking map; allocated on the first tracked fill of a line
func (e *Entry) MergeFrom(src map[uint16]uint64) {
	if len(src) == 0 {
		return
	}
	if e.Data == nil {
		e.Data = make(map[uint16]uint64, len(src))
	}
	//lint:allow determinism word-keyed map copy; every word lands on its own key, so order cannot matter
	for w, v := range src {
		e.Data[w] = v
	}
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
	Hits, Misses   uint64
	Fills, Evicts  uint64
	Invalidations  uint64 // lines invalidated individually
	BulkInvalLines uint64 // lines invalidated by bulk (acquire) flushes
	WriteHits      uint64
	WriteMisses    uint64
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
	clock   uint64 // LRU timestamp source
	filled  int
	// victim holds the line the last Fill displaced; Fill returns a
	// pointer to it instead of a heap copy.
	victim Entry

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
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.CapacityBytes / (cfg.LineSize * cfg.Ways)
	size := numSets * cfg.Ways
	caches := make([]Cache, n)
	entries := make([]Entry, n*size)
	for i := range caches {
		caches[i] = Cache{
			cfg:     cfg,
			entries: entries[i*size : (i+1)*size : (i+1)*size],
			ways:    cfg.Ways,
			numSets: uint64(numSets),
		}
	}
	return caches
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.numSets) }

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
			c.clock++
			set[i].lru = c.clock
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

// Fill inserts a line, evicting the LRU way of its set if necessary. It
// returns the entry for the new line and, when a valid line was
// displaced, a copy of the victim. The copy lives in a per-cache slot
// and is valid only until the next Fill. Filling an already-present
// line just refreshes it.
func (c *Cache) Fill(l topo.Line) (*Entry, *Entry) {
	set := c.setOf(l)
	c.clock++
	for i := range set {
		if set[i].Valid && set[i].Line == l {
			set[i].lru = c.clock
			return &set[i], nil
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
	var victim *Entry
	if victimIdx == -1 {
		victimIdx = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victimIdx].lru {
				victimIdx = i
			}
		}
		c.victim = set[victimIdx] // copy out before overwrite
		victim = &c.victim
		c.Stats.Evicts++
		c.filled--
	}
	set[victimIdx] = Entry{Line: l, Valid: true, lru: c.clock}
	c.filled++
	c.Stats.Fills++
	return &set[victimIdx], victim
}

// Invalidate drops a single line if present, returning whether it was.
func (c *Cache) Invalidate(l topo.Line) bool {
	set := c.setOf(l)
	for i := range set {
		if set[i].Valid && set[i].Line == l {
			set[i] = Entry{}
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

// InvalidateWhere drops every valid line satisfying pred, returning the
// count. Software coherence's bulk acquire invalidation uses it (pred ==
// nil drops everything).
func (c *Cache) InvalidateWhere(pred func(topo.Line) bool) int {
	dropped := 0
	for i := range c.entries {
		if e := &c.entries[i]; e.Valid && (pred == nil || pred(e.Line)) {
			*e = Entry{}
			c.filled--
			dropped++
		}
	}
	c.Stats.BulkInvalLines += uint64(dropped)
	return dropped
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
