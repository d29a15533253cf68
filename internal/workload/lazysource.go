package workload

// lazySource yields exactly the stream of a math/rand source seeded with
// the same value, but seeds in constant time. math/rand's Seed derives
// all 607 state words up front, running 1,841 sequential steps of a
// multiplicative congruential generator; the generator seeds one source
// per warp stream, so those steps dominated trace generation. Here Seed
// only stores the normalized seed and starts a new epoch, and each state
// word is derived when the stream first reads it in that epoch.
//
// State word i of math/rand's Seed is built from steps 21+3i, 22+3i and
// 23+3i of x ← 48271·x mod (2³¹−1) started at the seed x₀, and step k
// is x₀·48271^k mod (2³¹−1); seedPowers holds those powers, so a word
// takes three multiplications. The feedback update after seeding is
// math/rand's own.
type lazySource struct {
	tap, feed int
	// x0 is the normalized seed, in [1, 2³¹−1).
	x0 uint64
	// vec[i] is valid in this epoch exactly when seen[i] == epoch.
	epoch uint32
	seen  [rngLen]uint32
	vec   [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedMul is the multiplier of math/rand's seeding generator.
	seedMul = 48271
)

// seedPowers[k] is seedMul^(21+k) mod int32max: the factor that takes a
// seed to step 21+k of the seeding generator.
var seedPowers = func() (p [3 * rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * seedMul % int32max
	}
	for k := range p {
		p[k] = x
		x = x * seedMul % int32max
	}
	return p
}()

// Seed restarts the stream as math/rand's Seed(seed) would, in O(1).
func (r *lazySource) Seed(seed int64) {
	r.tap, r.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	r.x0 = uint64(seed)
	r.epoch++
	if r.epoch == 0 {
		// The stamps wrapped: forget every word of earlier epochs.
		clear(r.seen[:])
		r.epoch = 1
	}
}

// word returns state word i, deriving its seeded value on its first read
// in this epoch.
func (r *lazySource) word(i int) int64 {
	if r.seen[i] != r.epoch {
		r.seen[i] = r.epoch
		p := seedPowers[3*i : 3*i+3]
		u := int64(r.x0*p[0]%int32max) << 40
		u ^= int64(r.x0*p[1]%int32max) << 20
		u ^= int64(r.x0 * p[2] % int32max)
		r.vec[i] = u ^ rngCooked[i]
	}
	return r.vec[i]
}

// Int63 returns the stream's next non-negative 63-bit value.
func (r *lazySource) Int63() int64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.word(r.feed) + r.word(r.tap)
	r.vec[r.feed] = x
	return x & rngMask
}
