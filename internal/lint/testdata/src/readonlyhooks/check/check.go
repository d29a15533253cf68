// Readonlyhooks fixture: observer roots by method name, by hook
// literal and by Observe literal, mutating calls flagged through the
// facts (Lookup yes, Peek no), foreign field writes flagged
// structurally, and non-observer code left alone.
package check

import "fixture/cache"

// Checker observes a system.
type Checker struct {
	c    *cache.Cache
	seen int
}

// onEvent is a root by name: the observer entry point.
func (k *Checker) onEvent(ev int) {
	k.seen++        // checker-local state: fine
	_ = k.c.Peek(0) // read-only accessor: fine
	k.scan()
}

// scan is reachable from the observer, so its Lookup is a violation.
func (k *Checker) scan() {
	_ = k.c.Lookup(0) // want `mutates simulator state`
}

// Warm is NOT reachable from any observer: mutating freely is fine.
func Warm(c *cache.Cache) {
	_ = c.Lookup(0)
}

// system carries the hook field and the chaining method the analyzer
// recognizes by name.
type system struct {
	OnEvent func(int)
}

// Observe chains fn onto the hook.
func (s *system) Observe(fn func(int)) { s.OnEvent = fn }

// attach installs a hook literal: the literal's body is observer code.
func attach(sys *system, k *Checker) {
	sys.OnEvent = func(ev int) {
		e := k.c.Peek(0)
		e.Line = uint64(ev) // want `writes state of cache\.Entry`
	}
}

// observe passes a literal to Observe: its body is observer code too.
func observe(sys *system, k *Checker) {
	sys.Observe(func(ev int) {
		_ = k.c.Lookup(ev) // want `mutates simulator state`
	})
}

// attachAllowed suppresses a deliberate foreign write with a reason.
func attachAllowed(sys *system, k *Checker) {
	sys.OnEvent = func(ev int) {
		e := k.c.Peek(0)
		//lint:allow readonlyhooks scratch word reserved for the checker by contract
		e.Line = uint64(ev)
	}
}
