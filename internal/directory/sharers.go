package directory

import (
	"fmt"
	"math/bits"
)

// Sharers is a hierarchical sharer set over two id spaces: GPM sharers
// and GPU sharers. Which id space the GPM elements use (global GPM ids
// for flat protocols, GPU-local module indices for hierarchical ones)
// is the protocol's choice.
//
// A set is one fixed-width bitmap per id space. It is a plain value:
// every operation is a handful of word operations that never allocate,
// With and Without return new sets, Pop drains its receiver one sharer
// at a time, and two sets record the same sharers exactly when they
// are ==.
type Sharers struct {
	gpm, gpu bitmap
}

// bitmap is one id space's membership: ids 0..63 are the bits of lo,
// ids 64..127 those of hi. Two named words rather than a [2]uint64: Go
// keeps small structs in registers but arrays of more than one element
// in memory, which made every operation about 2.5× slower.
type bitmap struct{ lo, hi uint64 }

// MaxSharerIDs bounds both sharer id spaces (exclusive). 128 ids cover
// every machine the simulator runs: flat NHCC at 16×8 names 128 global
// GPM ids, and HMG at 16×8 needs 8 GPM ids and 16 GPU ids.
// Configuration validation rejects wider hardware-coherent shapes with
// an error, so GPMBit's and GPUBit's panics are unreachable from a
// valid configuration.
const MaxSharerIDs = 128

// GPMBit returns the sharer set holding exactly one GPM index.
func GPMBit(i int) Sharers { return Sharers{gpm: bitOf("GPM", i)} }

// GPUBit returns the sharer set holding exactly one GPU id.
func GPUBit(j int) Sharers { return Sharers{gpu: bitOf("GPU", j)} }

// bitOf returns the bitmap holding exactly id i of the named space.
func bitOf(space string, i int) bitmap {
	if i < 0 || i >= MaxSharerIDs {
		panic(fmt.Sprintf("directory: %s sharer index %d out of range [0, %d)", space, i, MaxSharerIDs))
	}
	if i < 64 {
		return bitmap{lo: 1 << uint(i)}
	}
	return bitmap{hi: 1 << uint(i-64)}
}

// Has reports whether every sharer of b is present in s.
func (s Sharers) Has(b Sharers) bool { return s.With(b) == s }

// With returns s plus the sharers of b.
func (s Sharers) With(b Sharers) Sharers {
	return Sharers{
		gpm: bitmap{s.gpm.lo | b.gpm.lo, s.gpm.hi | b.gpm.hi},
		gpu: bitmap{s.gpu.lo | b.gpu.lo, s.gpu.hi | b.gpu.hi},
	}
}

// Without returns s minus the sharers of b.
func (s Sharers) Without(b Sharers) Sharers {
	return Sharers{
		gpm: bitmap{s.gpm.lo &^ b.gpm.lo, s.gpm.hi &^ b.gpm.hi},
		gpu: bitmap{s.gpu.lo &^ b.gpu.lo, s.gpu.hi &^ b.gpu.hi},
	}
}

// Count returns the number of sharers recorded.
func (s Sharers) Count() int {
	return bits.OnesCount64(s.gpm.lo) + bits.OnesCount64(s.gpm.hi) +
		bits.OnesCount64(s.gpu.lo) + bits.OnesCount64(s.gpu.hi)
}

// IsEmpty reports whether no sharer is recorded.
func (s Sharers) IsEmpty() bool { return s == Sharers{} }

// Pop removes and returns s's first sharer: its lowest GPM index while
// any GPM sharer remains (isGPU false), then its lowest GPU id (isGPU
// true). Draining a set with Pop therefore visits every GPM sharer in
// ascending order, then every GPU sharer in ascending order. s must not
// be empty.
func (s *Sharers) Pop() (id int, isGPU bool) {
	if s.gpm != (bitmap{}) {
		return s.gpm.pop(), false
	}
	return s.gpu.pop(), true
}

// pop removes and returns b's lowest id.
func (b *bitmap) pop() int {
	if b.lo != 0 {
		i := bits.TrailingZeros64(b.lo)
		b.lo &= b.lo - 1
		return i
	}
	i := bits.TrailingZeros64(b.hi)
	b.hi &= b.hi - 1
	return 64 + i
}

// String implements fmt.Stringer for debugging.
func (s Sharers) String() string {
	out := "["
	for rest := s; !rest.IsEmpty(); {
		if rest != s {
			out += " "
		}
		id, isGPU := rest.Pop()
		space := "GPM"
		if isGPU {
			space = "GPU"
		}
		out += fmt.Sprintf("%s%d", space, id)
	}
	return out + "]"
}
