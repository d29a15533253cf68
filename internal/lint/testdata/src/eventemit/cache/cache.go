// Minimal stand-in for the simulator's cache package: the eventemit
// analyzer keys its mutation table on package/type/method names, so
// this fixture exercises the real table.
package cache

// Entry is one cached line.
type Entry struct {
	Dirty bool
}

// Cache is a trivial line container with a side table of word values.
type Cache struct {
	lines  map[uint64]*Entry
	values map[uint64]map[uint16]uint64
}

// SetValue updates one tracked word of a line.
func (c *Cache) SetValue(line uint64, w uint16, v uint64) {
	if c.values == nil {
		c.values = map[uint64]map[uint16]uint64{}
	}
	if c.values[line] == nil {
		c.values[line] = map[uint16]uint64{}
	}
	c.values[line][w] = v
}

// Fill installs a line.
func (c *Cache) Fill(line uint64) {
	if c.lines == nil {
		c.lines = map[uint64]*Entry{}
	}
	c.lines[line] = &Entry{}
}

// Invalidate drops a line.
func (c *Cache) Invalidate(line uint64) { delete(c.lines, line) }

// Peek reads without touching recency state.
func (c *Cache) Peek(line uint64) (*Entry, bool) {
	e, ok := c.lines[line]
	return e, ok
}
