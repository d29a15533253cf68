// Package memory models the per-GPM DRAM partitions: a fixed access
// latency plus a bandwidth-limited service queue, and a sparse word-value
// store that makes the memory system functionally checkable.
package memory

import (
	"math"

	"hmg/internal/engine"
	"hmg/internal/topo"
)

// Config sizes one DRAM partition.
type Config struct {
	// BandwidthGBs is the partition's bandwidth (Table II: 1 TB/s per
	// GPU = 250 GB/s per GPM). Non-positive means infinite.
	BandwidthGBs float64
	// Latency is the access latency in cycles.
	Latency engine.Cycle
	// LineSize is the transfer granule in bytes.
	LineSize int
}

// DefaultConfig returns the Table II per-GPM partition.
func DefaultConfig() Config { return Config{BandwidthGBs: 250, Latency: 250, LineSize: 128} }

// Stats counts DRAM events.
type Stats struct {
	Reads, Writes uint64
	Bytes         uint64
}

// DRAM is one GPM's memory partition.
type DRAM struct {
	eng           *engine.Engine
	cfg           Config
	bytesPerCycle float64
	nextFree      float64 // fractional, to avoid per-access quantization

	// values holds the authoritative word values, keyed by global word
	// index (addr / WordSize). Absent words were never written (reads
	// return 0); the map itself is made by the first StoreValue, which
	// only value-tracking runs call.
	values map[uint64]uint64

	Stats Stats
}

// WordSize is the value-tracking granularity in bytes.
const WordSize = 4

// New builds a DRAM partition.
func New(eng *engine.Engine, cfg Config) *DRAM {
	d := new(DRAM)
	d.Reset(eng, cfg)
	return d
}

// Reset makes d an idle partition of configuration cfg that holds no
// values, as New builds it.
func (d *DRAM) Reset(eng *engine.Engine, cfg Config) {
	*d = DRAM{eng: eng, cfg: cfg}
	if cfg.BandwidthGBs > 0 {
		d.bytesPerCycle = cfg.BandwidthGBs * 1e9 / eng.FrequencyHz()
	}
}

// Config returns the partition's configuration.
func (d *DRAM) Config() Config { return d.cfg }

func (d *DRAM) occupy(bytes int) engine.Cycle {
	now := float64(d.eng.Now())
	depart := now
	if d.nextFree > depart {
		depart = d.nextFree
	}
	var ser float64
	if d.bytesPerCycle > 0 {
		ser = float64(bytes) / d.bytesPerCycle
	}
	d.nextFree = depart + ser
	d.Stats.Bytes += uint64(bytes)
	return engine.Cycle(math.Ceil(d.nextFree)) + d.cfg.Latency
}

// Read fetches a line like ReadHandler, running the func done when the
// data is available.
func (d *DRAM) Read(l topo.Line, done func()) { d.ReadHandler(l, engine.Func(done)) }

// ReadHandler fetches a line, running done when the data is available.
// It schedules exactly one event and, given a pooled pointer handler,
// allocates nothing.
func (d *DRAM) ReadHandler(l topo.Line, done engine.Handler) {
	d.Stats.Reads++
	d.eng.ScheduleHandlerAt(d.occupy(d.cfg.LineSize), done)
}

// Write stores write-through data of the given size, running done (which
// may be nil) when the write has been accepted by the partition.
func (d *DRAM) Write(bytes int, done engine.Handler) {
	d.Stats.Writes++
	at := d.occupy(bytes)
	if done != nil {
		d.eng.ScheduleHandlerAt(at, done)
	}
}

// wordIndex returns the global word index of an address.
func wordIndex(a topo.Addr) uint64 { return uint64(a) / WordSize }

// StoreValue records the authoritative value of the word at a. It is a
// functional (zero-time) operation; timing comes from Write.
//
//lint:allow hotalloc value-tracking map; made on the partition's first tracked store, and only TrackValues configurations store values
func (d *DRAM) StoreValue(a topo.Addr, v uint64) {
	if d.values == nil {
		d.values = make(map[uint64]uint64)
	}
	d.values[wordIndex(a)] = v
}

// LoadValue returns the authoritative value of the word at a (0 if never
// written).
func (d *DRAM) LoadValue(a topo.Addr) uint64 { return d.values[wordIndex(a)] }

// LineValues returns the tracked words of line l as line-relative word
// index → value, for installing into cache entries on fills. Returns nil
// when no word of the line was ever written.
//
//lint:allow hotalloc value-tracking snapshot map; runs only on TrackValues configurations
func (d *DRAM) LineValues(l topo.Line) map[uint16]uint64 {
	base := wordIndex(topo.Addr(uint64(l) * uint64(d.cfg.LineSize)))
	words := uint64(d.cfg.LineSize / WordSize)
	var out map[uint16]uint64
	for w := uint64(0); w < words; w++ {
		if v, ok := d.values[base+w]; ok {
			if out == nil {
				out = make(map[uint16]uint64, 4)
			}
			out[uint16(w)] = v
		}
	}
	return out
}
