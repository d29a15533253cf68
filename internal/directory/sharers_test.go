package directory

import (
	"fmt"
	"sort"
	"testing"
)

// refSet is the obviously-correct reference model: a map keyed by
// (space, id).
type refSet map[[2]int]bool

func (r refSet) with(o refSet) refSet {
	out := refSet{}
	for k := range r {
		out[k] = true
	}
	for k := range o {
		out[k] = true
	}
	return out
}

func (r refSet) without(o refSet) refSet {
	out := refSet{}
	for k := range r {
		if !o[k] {
			out[k] = true
		}
	}
	return out
}

func (r refSet) has(o refSet) bool {
	for k := range o {
		if !r[k] {
			return false
		}
	}
	return true
}

func (r refSet) ids(space int) []int {
	var out []int
	for k := range r {
		if k[0] == space {
			out = append(out, k[1])
		}
	}
	sort.Ints(out)
	return out
}

// checkAgainstRef verifies every observable of a Sharers value against
// the reference.
func checkAgainstRef(t *testing.T, s Sharers, ref refSet) {
	t.Helper()
	if s.Count() != len(ref) {
		t.Fatalf("Count = %d, ref %d (%v)", s.Count(), len(ref), s)
	}
	if s.IsEmpty() != (len(ref) == 0) {
		t.Fatalf("IsEmpty = %v with %d ref elements", s.IsEmpty(), len(ref))
	}
	// Draining with Pop yields the GPM ids, then the GPU ids, each
	// ascending, in exactly Count steps.
	var gpms, gpus []int
	rest := s
	for steps := 0; !rest.IsEmpty(); steps++ {
		if steps == s.Count() {
			t.Fatalf("Pop did not drain %v in Count = %d steps", s, s.Count())
		}
		id, isGPU := rest.Pop()
		if isGPU {
			gpus = append(gpus, id)
		} else if len(gpus) > 0 {
			t.Fatalf("Pop yielded GPM %d after GPU ids %v", id, gpus)
		} else {
			gpms = append(gpms, id)
		}
	}
	wantGPMs, wantGPUs := ref.ids(0), ref.ids(1)
	if fmt.Sprint(gpms) != fmt.Sprint(wantGPMs) || fmt.Sprint(gpus) != fmt.Sprint(wantGPUs) {
		t.Fatalf("Pop order = GPMs %v GPUs %v, ref GPMs %v GPUs %v", gpms, gpus, wantGPMs, wantGPUs)
	}
}

// splitmix is the test's deterministic id generator.
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// edgeIDs are the ids at the edges of the two bitmap words, plus the
// middle of the first (31, 32).
var edgeIDs = []int{0, 1, 31, 32, 63, 64, 65, 126, 127}

// TestSharersProperty drives random With/Without/Has sequences against
// the reference model in both id spaces: over ids drawn from [0, n) for
// growing n up to the whole id space, and over the word-edge ids alone
// (dense, so sets fill and empty repeatedly).
func TestSharersProperty(t *testing.T) {
	below := func(n int) func(*uint64) int {
		return func(x *uint64) int { return int(splitmix(x) % uint64(n)) }
	}
	cases := []struct {
		name string
		ids  func(seed *uint64) int
		ops  int
	}{
		{"inline-only", below(32), 400},
		{"boundary-33", below(33), 400},
		{"boundary-40", below(40), 400},
		{"vector-64", below(64), 600}, // exactly the first word
		{"sparse-huge", below(MaxSharerIDs), 1200},
		{"word-edges", func(x *uint64) int { return edgeIDs[splitmix(x)%uint64(len(edgeIDs))] }, 600},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := uint64(1)
			var s Sharers
			ref := refSet{}
			for op := 0; op < tc.ops; op++ {
				id := tc.ids(&seed)
				isGPU := splitmix(&seed)%2 == 1
				bit, key := GPMBit(id), [2]int{0, id}
				if isGPU {
					bit, key = GPUBit(id), [2]int{1, id}
				}
				switch splitmix(&seed) % 4 {
				case 0, 1: // add
					s, ref = s.With(bit), ref.with(refSet{key: true})
				case 2: // remove
					s, ref = s.Without(bit), ref.without(refSet{key: true})
				default: // membership probe
					if s.Has(bit) != ref.has(refSet{key: true}) {
						t.Fatalf("op %d: Has(%v) = %v, ref %v", op, bit, s.Has(bit), ref.has(refSet{key: true}))
					}
				}
				checkAgainstRef(t, s, ref)
			}
			// Rebuilding the membership from scratch in a different
			// insertion order must land on an == set.
			var r Sharers
			for k := range ref {
				if k[0] == 0 {
					r = r.With(GPMBit(k[1]))
				} else {
					r = r.With(GPUBit(k[1]))
				}
			}
			if r != s {
				t.Fatalf("rebuilt set differs: %v vs %v", r, s)
			}
			// And clearing every element must return to the empty value.
			cleared := s
			for k := range ref {
				if k[0] == 0 {
					cleared = cleared.Without(GPMBit(k[1]))
				} else {
					cleared = cleared.Without(GPUBit(k[1]))
				}
			}
			if !cleared.IsEmpty() || cleared != (Sharers{}) {
				t.Fatalf("fully-cleared set not the empty value: %#v", cleared)
			}
		})
	}
	// A GPM id and a GPU id with the same number are distinct sharers.
	for _, id := range edgeIDs {
		if GPMBit(id).Has(GPUBit(id)) || GPUBit(id).Has(GPMBit(id)) || GPMBit(id) == GPUBit(id) {
			t.Fatalf("GPM and GPU id spaces collide at id %d", id)
		}
	}
	if got := GPMBit(1).With(GPMBit(64)).With(GPUBit(2)).With(GPUBit(127)).String(); got != "[GPM1 GPM64 GPU2 GPU127]" {
		t.Fatalf("String = %q", got)
	}
}

// sinkSharers, sinkInt and sinkBool keep the allocation probes' results
// live.
var (
	sinkSharers Sharers
	sinkInt     int
	sinkBool    bool
)

// TestSharersAllocateNothing checks that every Sharers operation is
// allocation-free at ids on both sides of each bitmap word edge, in
// both id spaces.
func TestSharersAllocateNothing(t *testing.T) {
	for _, id := range []int{0, 31, 32, 63, 64, 127} {
		full := GPMBit(0).With(GPMBit(id)).With(GPUBit(id)).With(GPUBit(MaxSharerIDs - 1))
		ops := []struct {
			name string
			fn   func()
		}{
			{"GPMBit", func() { sinkSharers = GPMBit(id) }},
			{"GPUBit", func() { sinkSharers = GPUBit(id) }},
			{"With", func() { sinkSharers = GPMBit(id).With(GPUBit(id)) }},
			{"Without", func() { sinkSharers = full.Without(GPMBit(id)) }},
			{"Has", func() { sinkBool = full.Has(GPUBit(id)) }},
			{"Count", func() { sinkInt = full.Count() }},
			{"IsEmpty", func() { sinkBool = full.IsEmpty() }},
			{"Pop", func() {
				for rest := full; !rest.IsEmpty(); {
					id, _ := rest.Pop()
					sinkInt += id
				}
			}},
		}
		for _, op := range ops {
			if n := testing.AllocsPerRun(100, op.fn); n != 0 {
				t.Errorf("%s at id %d allocates %.1f times per call", op.name, id, n)
			}
		}
	}
}

// TestStorageAt16x8 pins the §VII-C storage accounting at the largest
// toposcale machine: a 16-GPU, 8-GPM-per-GPU system bills M+N-2 = 22
// sharers per hierarchical entry and 127 per flat one.
func TestStorageAt16x8(t *testing.T) {
	sharers, bits := EntryCost(16, 8, true)
	if sharers != 22 || bits != 1+48+22 {
		t.Fatalf("hierarchical EntryCost = %d sharers, %d bits; want 22, 71", sharers, bits)
	}
	flatSharers, flat := EntryCost(16, 8, false)
	if flatSharers != 127 || flat != 1+48+127 {
		t.Fatalf("flat EntryCost = %d sharers, %d bits; want 127, 176", flatSharers, flat)
	}
}
