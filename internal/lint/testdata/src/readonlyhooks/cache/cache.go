// Cache stand-in for the readonlyhooks fixture: Lookup mutates LRU
// recency, Peek does not — exactly the distinction the mutability
// facts exist to make.
package cache

// Entry is one cached line with internal recency state.
type Entry struct {
	Line uint64
	lru  int
}

// Cache is a trivial set of entries.
type Cache struct {
	entries []Entry
	clock   int
}

// Lookup returns an entry and touches recency state: a mutation.
func (c *Cache) Lookup(i int) *Entry {
	c.clock++
	c.entries[i].lru = c.clock
	return &c.entries[i]
}

// Peek returns an entry without touching anything: read-only.
func (c *Cache) Peek(i int) *Entry { return &c.entries[i] }

// ForEach visits every entry.
func (c *Cache) ForEach(f func(*Entry)) {
	for i := range c.entries {
		f(&c.entries[i])
	}
}
