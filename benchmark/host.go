package main

import (
	"fmt"
	"os"
	"time"
)

// The host-speed reference. The benchmark's host shares its last-level
// cache and memory with other machines' work, and its speed drifts by a
// quarter or more over minutes while neighbours come and go. The
// simulator's speed follows the share of the cache it keeps, and so does
// a dependent pointer chase through a buffer somewhat larger than the
// simulator's working set; a compute loop and chases through smaller
// buffers do not. So every host time the benchmark reports is scaled by
// refNominalNs over the run's median reference time: a drift of the host
// moves both and cancels, and a change to the simulator moves only the
// simulator. On a 2-vCPU virtual machine, over two sets of ten runs per
// workload, scaling cut the inter-quartile range of matrix wall times
// from 0.11-0.18 of the median to 0.06-0.09, and the campaign's from
// 0.11-0.12 to 0.08-0.11 (README.md). The reference is the benchmark's
// own code and depends on nothing in the repository.

const (
	// refEntries is the size of the chased buffer: 32 MiB of uint32,
	// more than the simulator's resident working set.
	refEntries = 1 << 23
	// refSteps is the number of dependent loads one sample times.
	refSteps = 1 << 20
	// refReps is the number of samples taken before every pass.
	refReps = 2
	// refNominalNs is the reference's time per load that reported host
	// times are scaled to: about its median on an undisturbed host.
	refNominalNs = 80.0
)

// refHash is a bijection on [0, refEntries): multiplying by an odd
// constant and xor-shifting right are both invertible modulo 2^23.
func refHash(x uint32) uint32 {
	const mask = refEntries - 1
	x ^= x >> 11
	x = (x * 0x2c1b3c6d) & mask
	x ^= x >> 12
	x = (x * 0x297a2d39) & mask
	x ^= x >> 11
	return x
}

// refSink keeps the compiler from dropping the chase.
var refSink uint32

// hostClock collects reference samples over a run and scales host times
// by them.
type hostClock struct{ ns []float64 }

// sample builds a single-cycle permutation of refEntries slots in the
// hashed order, times refReps chases of refSteps dependent loads through
// it, and drops it; resetPeakRSS returns the buffer to the operating
// system before the next pass, so it does not count in peak_rss_mb.
func (h *hostClock) sample() {
	next := make([]uint32, refEntries)
	for k := uint32(0); k < refEntries; k++ {
		next[refHash(k)] = refHash((k + 1) & (refEntries - 1))
	}
	i := refHash(0)
	for r := 0; r < refReps; r++ {
		t0 := time.Now()
		for s := 0; s < refSteps; s++ {
			i = next[i]
		}
		h.ns = append(h.ns, float64(time.Since(t0).Nanoseconds())/refSteps)
	}
	refSink += i
}

// factor is refNominalNs over the median sample: above 1 on a host
// faster than nominal, below 1 on a slower one.
func (h *hostClock) factor() float64 { return refNominalNs / median(h.ns) }

// scale converts a measured host time to seconds at nominal host speed.
func (h *hostClock) scale(d time.Duration) float64 { return d.Seconds() * h.factor() }

// report prints the unscaled times and the reference on standard error.
func (h *hostClock) report(wall, setup time.Duration) {
	fmt.Fprintf(os.Stderr, "measured wall %.4fs setup %.6fs; reference %.2f ns/load over %d samples, scale factor %.4f\n",
		wall.Seconds(), setup.Seconds(), median(h.ns), len(h.ns), h.factor())
}
