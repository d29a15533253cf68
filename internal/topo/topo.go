// Package topo defines the hierarchical topology of a multi-GPU system —
// GPUs composed of GPU modules (GPMs), each GPM hosting SMs, an L2 cache
// slice, and a DRAM partition — together with the address arithmetic that
// maps physical addresses onto that hierarchy: cache lines, pages,
// first-touch page placement, and the GPU-home / system-home node
// functions at the heart of the HMG protocol.
package topo

import (
	"fmt"
	"math"
)

// Addr is a physical byte address in global memory.
type Addr uint64

// Line identifies a cache line (Addr >> log2(lineSize)).
type Line uint64

// Page identifies an OS page (Addr >> log2(pageSize)).
type Page uint64

// GPMID identifies a GPU module globally across the whole system:
// gpu*GPMsPerGPU + localGPM.
type GPMID int

// GPUID identifies a GPU.
type GPUID int

// SMID identifies a streaming multiprocessor globally.
type SMID int

// Topology describes the shape of the simulated machine. All fields must
// be powers of two except NumGPUs and GPMsPerGPU, which merely must be
// positive (home hashing uses modulo).
type Topology struct {
	NumGPUs    int
	GPMsPerGPU int
	SMsPerGPM  int
	LineSize   int // bytes per cache line
	PageSize   int // bytes per OS page
}

// Validate reports whether the topology is internally consistent.
func (t Topology) Validate() error {
	switch {
	case t.NumGPUs <= 0:
		return fmt.Errorf("topo: NumGPUs = %d, must be positive", t.NumGPUs)
	case t.GPMsPerGPU <= 0:
		return fmt.Errorf("topo: GPMsPerGPU = %d, must be positive", t.GPMsPerGPU)
	case t.SMsPerGPM <= 0:
		return fmt.Errorf("topo: SMsPerGPM = %d, must be positive", t.SMsPerGPM)
	case t.LineSize <= 0 || t.LineSize&(t.LineSize-1) != 0:
		return fmt.Errorf("topo: LineSize = %d, must be a positive power of two", t.LineSize)
	case t.PageSize <= 0 || t.PageSize&(t.PageSize-1) != 0:
		return fmt.Errorf("topo: PageSize = %d, must be a positive power of two", t.PageSize)
	case t.PageSize < t.LineSize:
		return fmt.Errorf("topo: PageSize %d smaller than LineSize %d", t.PageSize, t.LineSize)
	case t.GPMsPerGPU > math.MaxInt/t.NumGPUs:
		return fmt.Errorf("topo: %d GPUs × %d GPMs per GPU overflows the GPM count", t.NumGPUs, t.GPMsPerGPU)
	case t.SMsPerGPM > math.MaxInt/t.TotalGPMs():
		return fmt.Errorf("topo: %d GPMs × %d SMs per GPM overflows the SM count", t.TotalGPMs(), t.SMsPerGPM)
	}
	return nil
}

// TotalGPMs returns the number of GPU modules in the system.
func (t Topology) TotalGPMs() int { return t.NumGPUs * t.GPMsPerGPU }

// TotalSMs returns the number of SMs in the system.
func (t Topology) TotalSMs() int { return t.TotalGPMs() * t.SMsPerGPM }

// GPM composes a global GPM id from a GPU id and a GPU-local module index.
func (t Topology) GPM(gpu GPUID, local int) GPMID {
	return GPMID(int(gpu)*t.GPMsPerGPU + local)
}

// GPUOf returns the GPU that contains the given GPM.
func (t Topology) GPUOf(g GPMID) GPUID { return GPUID(int(g) / t.GPMsPerGPU) }

// LocalOf returns the GPU-local module index of the given GPM.
func (t Topology) LocalOf(g GPMID) int { return int(g) % t.GPMsPerGPU }

// SameGPU reports whether two GPMs belong to the same GPU.
func (t Topology) SameGPU(a, b GPMID) bool { return t.GPUOf(a) == t.GPUOf(b) }

// GPMOfSM returns the GPM hosting the given SM.
func (t Topology) GPMOfSM(s SMID) GPMID { return GPMID(int(s) / t.SMsPerGPM) }

// SM composes a global SM id.
func (t Topology) SM(g GPMID, local int) SMID { return SMID(int(g)*t.SMsPerGPM + local) }

// LineOf returns the cache line containing addr.
func (t Topology) LineOf(a Addr) Line { return Line(uint64(a) / uint64(t.LineSize)) }

// LineAddr returns the base address of a line.
func (t Topology) LineAddr(l Line) Addr { return Addr(uint64(l) * uint64(t.LineSize)) }

// PageOf returns the page containing addr.
func (t Topology) PageOf(a Addr) Page { return Page(uint64(a) / uint64(t.PageSize)) }

// PageOfLine returns the page containing a line.
func (t Topology) PageOfLine(l Line) Page {
	return Page(uint64(l) * uint64(t.LineSize) / uint64(t.PageSize))
}

// LinesPerPage returns the number of cache lines in one page.
func (t Topology) LinesPerPage() int { return t.PageSize / t.LineSize }

// hashLine mixes line bits so that consecutive lines spread across home
// nodes without pathological striding (splitmix64 finalizer).
func hashLine(l Line) uint64 {
	x := uint64(l) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HomeGranuleLines is the interleaving granularity of GPU home hashing:
// all lines of one granule share a GPU home node. It matches the default
// coherence-directory tracking granularity (4 lines = 512B) so that a
// directory region never straddles home nodes.
const HomeGranuleLines = 4

// GPUHomeLocal returns the GPU-local module index that serves as the GPU
// home node for a line inside any GPU. The hash is the same in every GPU
// so that a line has one well-defined home slot per GPU, and is computed
// per HomeGranuleLines granule.
func (t Topology) GPUHomeLocal(l Line) int {
	return int(hashLine(l/HomeGranuleLines) % uint64(t.GPMsPerGPU))
}

// GPUHome returns the GPM acting as GPU home node for line l within GPU
// gpu. For the GPU that owns the backing page, the system home (owner
// GPM) takes that role instead; callers that know the owner should use
// PageMap.GPUHome.
func (t Topology) GPUHome(gpu GPUID, l Line) GPMID {
	return t.GPM(gpu, t.GPUHomeLocal(l))
}
