// Package workload synthesizes traces for the twenty Table III
// benchmarks of the paper (plus calibration microbenchmarks). The
// authors' proprietary traces are unavailable, so each benchmark is
// modeled by the protocol-visible properties that differentiate the
// coherence configurations:
//
//   - footprint and read/write mix,
//   - the fraction of accesses to data shared across GPMs/GPUs,
//   - the intra-GPU redundancy of remote accesses (paper Fig. 3): how
//     often sibling GPMs of one GPU touch the same remote lines,
//   - the amount of read-write sharing (invalidation pressure),
//   - reuse within a kernel versus across dependent kernel launches
//     (software coherence loses cross-kernel reuse to bulk
//     invalidation; hardware coherence keeps it),
//   - explicit .gpu/.sys-scoped synchronization and atomics,
//   - false sharing at directory-entry granularity (graph workloads).
//
// Generators are deterministic for a given seed and scale.
package workload

import (
	"fmt"
	"math/rand"

	"hmg/internal/topo"
	"hmg/internal/trace"
)

// Params describes one synthetic workload.
type Params struct {
	Name   string
	Abbrev string

	// FootprintMB is the scaled memory footprint in MiB (the Table III
	// footprints scaled down ~64× to match scaled trace lengths).
	FootprintMB float64
	// TableIIIFootprint records the paper's original footprint, for
	// documentation.
	TableIIIFootprint string

	// Kernels is the number of dependent kernel launches.
	Kernels int
	// CTAsPerGPM × total GPMs gives the CTA count per kernel.
	CTAsPerGPM  int
	WarpsPerCTA int
	OpsPerWarp  int

	// ReadFrac is the fraction of data ops that are loads.
	ReadFrac float64
	// SharedFrac is the fraction of accesses targeting the globally
	// shared region (the rest are CTA-private).
	SharedFrac float64
	// Redundancy is the probability that a shared access draws from the
	// hot subset common to all GPMs — this directly produces the Fig. 3
	// intra-GPU redundancy of inter-GPU loads.
	Redundancy float64
	// RWShared is the probability that a store is allowed to target
	// shared data (read-write sharing; drives invalidations).
	RWShared float64
	// InKernelReuse is how many times each warp re-walks its working set
	// within one kernel (reuse every protocol can exploit).
	InKernelReuse int
	// CrossKernelReuse is the fraction of the working set shared with the
	// previous kernel: dependent RNN-style kernels re-read the same data
	// (1.0, reuse only hardware coherence retains across the implicit
	// kernel-boundary invalidations), while bulk-synchronous kernels walk
	// mostly fresh data (low values make software and hardware coherence
	// perform alike, as in the paper's left-half benchmarks).
	CrossKernelReuse float64
	// SyncScope, when not ScopeNone, inserts an acquire/release pair
	// every SyncEvery ops at that scope.
	SyncScope trace.Scope
	SyncEvery int
	// AtomicFrac is the probability a sync point uses an atomic RMW
	// instead of the acquire/release pair.
	AtomicFrac float64
	// FalseSharing makes shared stores stride at word granularity within
	// a small set of lines so distinct GPMs write disjoint words of the
	// same directory regions (the graph-workload pathology).
	FalseSharing bool
	// GapMean is the mean compute gap between memory ops, in cycles.
	GapMean int

	Seed int64
}

// Validate reports whether the parameters are generatable.
func (p Params) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: empty name")
	case p.FootprintMB <= 0:
		return fmt.Errorf("workload %s: FootprintMB %v", p.Name, p.FootprintMB)
	case p.Kernels <= 0 || p.CTAsPerGPM <= 0 || p.WarpsPerCTA <= 0 || p.OpsPerWarp <= 0:
		return fmt.Errorf("workload %s: non-positive shape", p.Name)
	case p.ReadFrac < 0 || p.ReadFrac > 1 || p.SharedFrac < 0 || p.SharedFrac > 1:
		return fmt.Errorf("workload %s: fraction out of range", p.Name)
	case p.Redundancy < 0 || p.Redundancy > 1 || p.RWShared < 0 || p.RWShared > 1:
		return fmt.Errorf("workload %s: fraction out of range", p.Name)
	case p.SyncScope != trace.ScopeNone && p.SyncEvery <= 0:
		return fmt.Errorf("workload %s: SyncScope without SyncEvery", p.Name)
	case p.CrossKernelReuse < 0 || p.CrossKernelReuse > 1:
		return fmt.Errorf("workload %s: CrossKernelReuse out of range", p.Name)
	}
	return nil
}

const lineBytes = 128

// layout captures the generated address-space arrangement:
//
//	[ per-CTA private chunks | per-GPU shared tiles | per-GPM shared
//	  slices | global read-write hot lines | sync flags ]
//
// Tiles are walked by every GPM of their GPU (the Fig. 3 redundancy a
// GPU home node can coalesce); slices are walked by a single GPM but
// still live on remote pages; the RW-hot lines are written by all GPMs
// (false sharing); pages of the whole shared area are distributed
// round-robin across all GPMs, reproducing the ownership spread a
// first-touch run of the original multi-kernel application produces.
type layout struct {
	privPerCTA int64 // bytes of private data per CTA
	tileBase   int64
	tileBytes  int64 // per GPU (whole span across sliding windows)
	tileLines  int64 // window size walked within one kernel
	tileSlide  int64 // lines the window advances per kernel
	sliceBase  int64
	sliceBytes int64 // per GPM (whole span)
	sliceLines int64 // window size
	sliceSlide int64
	privSlide  int64 // lines a warp's private walk advances per kernel
	rwSegLines int64 // lines of the tile's read-write segment
	rwBase     int64
	rwLines    int64
	syncBase   int64
	numGPUs    int
	totalGPMs  int
	gpmsPerGPU int
}

// alignLine rounds up to a whole number of cache lines.
func alignLine(b int64) int64 {
	if b < lineBytes {
		return lineBytes
	}
	return (b + lineBytes - 1) / lineBytes * lineBytes
}

func clampLines(v, lo int64) int64 {
	if v < lo {
		return lo
	}
	return v
}

// layoutFor arranges the address space. The tile and slice working sets
// are sized from the expected shared-draw counts so that tiles see ~2
// draws per line per kernel (sibling overlap) at any scale.
func (p Params) layoutFor(t topo.Topology, numCTAs, setSize int) layout {
	slideFrac := 1 - p.CrossKernelReuse
	l := layout{
		numGPUs:    t.NumGPUs,
		totalGPMs:  t.TotalGPMs(),
		gpmsPerGPU: t.GPMsPerGPU,
	}
	foot := int64(p.FootprintMB * (1 << 20))
	l.privPerCTA = alignLine(int64(float64(foot) * (1 - p.SharedFrac) / float64(numCTAs)))

	warpsPerGPU := float64(p.CTAsPerGPM * t.GPMsPerGPU * p.WarpsPerCTA)
	tileDraws := warpsPerGPU * float64(setSize) * p.SharedFrac * p.Redundancy
	// The tile is capped at ~1.5 of a (scaled) 3MB L2 slice: big enough
	// that one GPM's slice thrashes, small enough that a GPU's four
	// slices hold it — the regime where hierarchical caching pays.
	tileLines := clampLines(int64(tileDraws/2), 64)
	if tileLines > 640 {
		tileLines = 640
	}
	sliceDraws := float64(p.CTAsPerGPM*p.WarpsPerCTA*setSize) * p.SharedFrac * (1 - p.Redundancy)
	sliceLines := clampLines(int64(sliceDraws/2), 16)
	if sliceLines > 64 {
		sliceLines = 64
	}

	l.tileLines = tileLines
	l.tileSlide = int64(slideFrac * float64(tileLines))
	l.sliceLines = sliceLines
	l.sliceSlide = int64(slideFrac * float64(sliceLines))
	l.privSlide = int64(slideFrac * float64(setSize))
	// True read-write sharing concentrates in a small segment of the
	// tile ("only a small percentage of the memory footprint contains
	// read-write shared data").
	l.rwSegLines = tileLines / 8
	if l.rwSegLines < 8 {
		l.rwSegLines = 8
	}

	tileSpan := tileLines + l.tileSlide*int64(p.Kernels-1)
	sliceSpan := sliceLines + l.sliceSlide*int64(p.Kernels-1)
	l.tileBase = l.privPerCTA * int64(numCTAs)
	l.tileBytes = tileSpan * lineBytes
	l.sliceBase = l.tileBase + int64(t.NumGPUs)*l.tileBytes
	l.sliceBytes = sliceSpan * lineBytes
	l.rwBase = l.sliceBase + int64(t.TotalGPMs())*l.sliceBytes
	l.rwLines = 256
	l.syncBase = l.rwBase + l.rwLines*lineBytes
	return l
}

// CheckScale reports whether scale is a valid Generate scale: a number
// in (0, 1]. NaN is rejected.
func CheckScale(scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("scale %v out of (0,1]", scale)
	}
	return nil
}

// Generate synthesizes the trace for a system topology. scale ∈ (0, 1]
// shrinks the op count (for sensitivity sweeps and unit tests); 1 is the
// full scaled workload. It panics on an invalid scale (see CheckScale).
func (p Params) Generate(t topo.Topology, scale float64) *trace.Trace {
	return p.generate(t, scale, &lazySource{})
}

// generate is Generate drawing every warp stream from src, which it
// reseeds per stream.
func (p Params) generate(t topo.Topology, scale float64, src rand.Source) *trace.Trace {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if err := CheckScale(scale); err != nil {
		panic(fmt.Sprintf("workload %s: %v", p.Name, err))
	}
	numCTAs := p.CTAsPerGPM * t.TotalGPMs()
	opsPerWarp := int(float64(p.OpsPerWarp) * scale)
	if opsPerWarp < 8 {
		opsPerWarp = 8
	}
	setSize := setSizeFor(p, opsPerWarp)
	l := p.layoutFor(t, numCTAs, setSize)
	// Synchronization cadence scales with the trace so scaled-down runs
	// keep the workload's sync-to-compute ratio.
	syncEvery := p.SyncEvery
	if p.SyncScope != trace.ScopeNone {
		syncEvery = int(float64(p.SyncEvery) * scale)
		if syncEvery < 16 {
			syncEvery = 16
		}
	}
	tr := &trace.Trace{
		Name:           p.Abbrev,
		FootprintBytes: l.syncBase + int64(t.NumGPUs+t.TotalGPMs()+1)*32*lineBytes,
	}
	p.placePages(t, tr, l, numCTAs)
	// Each kernel's ops live in one slab, warp after warp, each warp
	// with room for opsPerWarp plus the sync pair that can follow its
	// last op, and its CTAs carve their warps from one slab.
	warpCap := opsPerWarp + 2
	slabs := make([][]trace.Op, p.Kernels)
	tr.Kernels = make([]trace.Kernel, p.Kernels)
	for k := range tr.Kernels {
		slabs[k] = make([]trace.Op, numCTAs*p.WarpsPerCTA*warpCap)
		ctas := make([]trace.CTA, numCTAs)
		warps := make([]trace.Warp, numCTAs*p.WarpsPerCTA)
		for c := range ctas {
			lo, hi := c*p.WarpsPerCTA, (c+1)*p.WarpsPerCTA
			ctas[c].Warps = warps[lo:hi:hi]
		}
		tr.Kernels[k].CTAs = ctas
	}
	// Each (CTA, warp) stream is drawn once, as a template, and placed
	// at every kernel's windows: the warp walks the same working set in
	// every kernel, slid by (1-CrossKernelReuse), which is cross-kernel
	// reuse that only hardware coherence retains.
	rng := rand.New(src)
	set := make([]slot, 0, setSize)
	tmpl := make([]tmplOp, 0, warpCap)
	for c := 0; c < numCTAs; c++ {
		gpm := int(trace.AssignCTA(c, numCTAs, t.TotalGPMs()))
		for w := 0; w < p.WarpsPerCTA; w++ {
			src.Seed(p.Seed ^ int64(c)<<20 ^ int64(w)<<8)
			tmpl, set = p.genWarp(tmpl[:0], set, rng, l, c, gpm, w, opsPerWarp, syncEvery)
			at := (c*p.WarpsPerCTA + w) * warpCap
			for k := range tr.Kernels {
				tr.Kernels[k].CTAs[c].Warps[w].Ops = l.place(slabs[k][at:at:at+warpCap], tmpl, c, gpm, w, k)
			}
		}
	}
	return tr
}

// placePages emits placement hints reproducing a first-touch run:
// private pages on their CTA's GPM, shared pages round-robin across all
// GPMs.
func (p Params) placePages(t topo.Topology, tr *trace.Trace, l layout, numCTAs int) {
	page := int64(t.PageSize)
	seen := make(map[topo.Page]bool)
	hint := func(addr int64, g topo.GPMID) {
		pg := topo.Page(addr / page)
		if !seen[pg] {
			seen[pg] = true
			tr.Placement = append(tr.Placement, trace.PlacementHint{Page: pg, GPM: g})
		}
	}
	for c := 0; c < numCTAs; c++ {
		g := trace.AssignCTA(c, numCTAs, t.TotalGPMs())
		base := int64(c) * l.privPerCTA
		for a := base; a < base+l.privPerCTA; a += page {
			hint(a, g)
		}
	}
	// Shared pages are owned by a pseudo-random GPM (hash of the page
	// number), as if scattered by the first-touch pattern of the
	// producing kernels: consecutive pages of one GPU's working set must
	// not cluster on that GPU, or the data would hardly be remote at all.
	for a := l.tileBase; a < l.syncBase+int64(t.NumGPUs+t.TotalGPMs()+1)*32*lineBytes; a += page {
		pg := uint64(a) / uint64(page)
		h := (pg*2654435761 + 0x9e3779b9) % uint64(t.TotalGPMs())
		hint(a, topo.GPMID(h))
	}
}

// setSizeFor returns the unique working-set size of a warp stream.
func setSizeFor(p Params, opsPerWarp int) int {
	setSize := opsPerWarp
	if p.InKernelReuse > 1 {
		setSize = opsPerWarp / p.InKernelReuse
		if setSize < 4 {
			setSize = 4
		}
	}
	return setSize
}

// addrClass says how an address of a warp stream moves from one kernel
// to the next.
type addrClass uint8

const (
	// fixedAddr never moves: read-write hot lines, false-sharing words
	// and sync flags. The index is the address itself.
	fixedAddr addrClass = iota
	// tileAddr is a line of the GPU's tile window, which slides
	// tileSlide lines per kernel.
	tileAddr
	// sliceAddr is a line of the GPM's slice window, which slides
	// sliceSlide lines per kernel.
	sliceAddr
	// privAddr is the index-th line of the warp's private walk. The walk
	// starts privSlide lines further into the CTA's chunk each kernel
	// and wraps around the chunk.
	privAddr
	// rwSliceAddr is a read-write-segment store whose slot is a slice
	// line. The index is the slot's line offset from the tile's start
	// in kernel 0; the two windows slide apart by sliceSlide−tileSlide
	// lines per kernel before the offset is folded into the segment, so
	// this is no plain shift of either window.
	rwSliceAddr
)

// slot is one draw of a warp's working set.
type slot struct {
	class addrClass
	idx   int64
}

// tmplOp is one op of a warp stream with its address left as a
// kernel-independent class and index; place turns it into the op of a
// given kernel.
type tmplOp struct {
	op    trace.Op // Addr is set by place
	class addrClass
	idx   int64
}

// genWarp appends one warp's stream to tmpl, which must have room for
// opsPerWarp+2 ops. No branch reads an address, so the stream's draws,
// kinds, gaps and values are those of every kernel. set is scratch
// space for the working set; genWarp reuses its backing array and
// returns it for the next call.
func (p Params) genWarp(tmpl []tmplOp, set []slot, rng *rand.Rand, l layout, cta, gpm, warp, opsPerWarp, syncEvery int) ([]tmplOp, []slot) {
	gpu := gpm / l.gpmsPerGPU
	tileLines := l.tileLines
	sliceLines := l.sliceLines
	tilePos := rng.Int63n(tileLines)
	slicePos := rng.Int63n(sliceLines)
	// Stride the tile walk so each warp's draws spread across the whole
	// tile: every GPM then touches (a sample of) the full shared working
	// set, the redundancy pattern of Fig. 3.
	perWarpTileDraws := int64(float64(setSizeFor(p, opsPerWarp)) * p.SharedFrac * p.Redundancy)
	tileStride := int64(1)
	if perWarpTileDraws > 0 {
		tileStride = tileLines/perWarpTileDraws + 1
	}
	// A slice line's offset from the GPU's tile, in lines.
	sliceFromTile := (l.sliceBase + int64(gpm)*l.sliceBytes - l.tileBase - int64(gpu)*l.tileBytes) / lineBytes

	gap := func() uint32 {
		if p.GapMean <= 0 {
			return 0
		}
		return uint32(rng.Intn(2 * p.GapMean))
	}
	// The per-warp working set: a fixed list of draws, re-walked
	// InKernelReuse times. Drawing the set once per warp (independent of
	// the kernel index) creates cross-kernel reuse.
	setSize := setSizeFor(p, opsPerWarp)
	set = set[:0]
	privPos := int64(0)
	for i := 0; i < setSize; i++ {
		if rng.Float64() < p.SharedFrac {
			if p.FalseSharing && rng.Float64() < 0.4 {
				// Graph frontiers: the false-shared hot lines are also
				// read by every GPM, so writers keep finding sharers to
				// invalidate (the Fig. 9 outlier behaviour).
				set = append(set, slot{fixedAddr, l.rwBase + rng.Int63n(l.rwLines)*lineBytes})
			} else if rng.Float64() < p.Redundancy {
				// Sequential walk of this GPU's tile: all GPMs of the
				// GPU collectively cover (and re-cover) the same lines.
				set = append(set, slot{tileAddr, tilePos % tileLines})
				tilePos += tileStride
			} else {
				// Walk of this GPM's exclusive (but remotely homed) slice.
				set = append(set, slot{sliceAddr, slicePos % sliceLines})
				slicePos++
			}
		} else {
			set = append(set, slot{privAddr, privPos})
			privPos++
		}
	}
	sinceSync := 0
	emit := 0
	for reuse := 0; emit < opsPerWarp; reuse++ {
		for i := 0; i < len(set) && emit < opsPerWarp; i++ {
			s := set[i]
			shared := s.class != privAddr
			isLoad := rng.Float64() < p.ReadFrac
			if !isLoad && shared && rng.Float64() >= p.RWShared {
				isLoad = true // shared data is mostly read
			}
			t := tmplOp{op: trace.Op{Kind: trace.Load, Gap: gap()}, class: s.class, idx: s.idx}
			if !isLoad {
				t.op.Kind = trace.Store
				t.op.Val = uint64(cta)<<16 | uint64(emit)
				if shared && p.FalseSharing {
					// Write a GPM-specific word of a globally hot line:
					// disjoint words, same directory region — pure false
					// sharing.
					t.class, t.idx = fixedAddr, l.rwBase+rng.Int63n(l.rwLines)*lineBytes+int64(gpm%32)*4
				} else if shared {
					if rng.Float64() < 0.25 {
						// True read-write sharing lands in the tile's
						// read-write segment, at the slot's offset from
						// the tile folded into the segment.
						if s.class == tileAddr {
							t.idx = s.idx % l.rwSegLines
						} else {
							t.class, t.idx = rwSliceAddr, sliceFromTile+s.idx
						}
					} else {
						// Most shared-structure writes land in the GPM's
						// exclusive output slice: nobody else reads them
						// concurrently, so they trigger no invalidations.
						t.class, t.idx = sliceAddr, slicePos%sliceLines
						slicePos++
					}
				}
			}
			tmpl = append(tmpl, t)
			emit++
			sinceSync++
			if p.SyncScope != trace.ScopeNone && sinceSync >= syncEvery {
				sinceSync = 0
				tmpl = p.syncOps(tmpl, rng, l, cta, gpm, gpu, warp)
				emit += 2
			}
		}
	}
	return tmpl, set
}

// place appends kernel's copy of a warp's template to ops: each address
// is its class's window in that kernel plus the op's index. Each
// kernel's window slides by (1-CrossKernelReuse) of the working set, so
// only that fraction of last kernel's lines recur.
func (l layout) place(ops []trace.Op, tmpl []tmplOp, cta, gpm, warp, kernel int) []trace.Op {
	k := int64(kernel)
	tile := l.tileBase + int64(gpm/l.gpmsPerGPU)*l.tileBytes + k*l.tileSlide*lineBytes
	slice := l.sliceBase + int64(gpm)*l.sliceBytes + k*l.sliceSlide*lineBytes
	rwDrift := k * (l.sliceSlide - l.tileSlide)
	priv := int64(cta) * l.privPerCTA
	privLines := l.privPerCTA / lineBytes
	privStart := (int64(warp)*17 + k*l.privSlide) % privLines
	for _, t := range tmpl {
		var a int64
		switch t.class {
		case fixedAddr:
			a = t.idx
		case tileAddr:
			a = tile + t.idx*lineBytes
		case sliceAddr:
			a = slice + t.idx*lineBytes
		case privAddr:
			line := privStart + t.idx
			if line >= privLines {
				line %= privLines
			}
			a = priv + line*lineBytes
		case rwSliceAddr:
			a = tile + (t.idx+rwDrift)%l.rwSegLines*lineBytes
		}
		op := t.op
		op.Addr = topo.Addr(a)
		ops = append(ops, op)
	}
	return ops
}

// syncOps appends one synchronization episode to tmpl: either an atomic
// RMW on a shared counter or a release/acquire pair on a flag. Flags are
// partitioned per GPU: .gpu-scoped synchronization only ever involves
// threads of one GPU, so distinct GPUs must not false-share sync lines.
func (p Params) syncOps(tmpl []tmplOp, rng *rand.Rand, l layout, cta, gpm, gpu, warp int) []tmplOp {
	// Flags are partitioned by the synchronization domain: per GPM for
	// the .gpm extension scope, per GPU otherwise, so partners never
	// span the scope they synchronize at.
	domain := gpu
	if p.SyncScope == trace.ScopeGPM {
		domain = l.numGPUs + gpm // distinct flag space per GPM
	}
	flag := l.syncBase + int64(domain*32+(cta*7+warp)%32)*lineBytes
	acquire := tmplOp{op: trace.Op{Kind: trace.LoadAcq, Scope: p.SyncScope}, class: fixedAddr, idx: flag}
	if rng.Float64() < p.AtomicFrac {
		return append(tmpl,
			tmplOp{op: trace.Op{Kind: trace.Atomic, Scope: p.SyncScope, Val: 1}, class: fixedAddr, idx: flag},
			acquire)
	}
	return append(tmpl,
		tmplOp{op: trace.Op{Kind: trace.StoreRel, Scope: p.SyncScope, Val: uint64(cta + 1)}, class: fixedAddr, idx: flag},
		acquire)
}
