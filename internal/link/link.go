// Package link models the bandwidth-constrained interconnects of a
// hierarchical multi-GPU system: per-GPM crossbar ports inside each GPU
// and NVSwitch-style per-GPU links between GPUs.
//
// Every Link applies a latency plus a FIFO serialization model: a message
// of B bytes occupies the link for ceil(B / bytesPerCycle) cycles, and
// messages queue behind one another. This captures the saturation
// behaviour of the inter-GPU links that drives every NUMA effect in the
// paper.
package link

import (
	"fmt"
	"math"

	"hmg/internal/engine"
	"hmg/internal/msg"
)

// Link is a unidirectional, bandwidth-limited, fixed-latency channel.
type Link struct {
	eng *engine.Engine
	// kind names the link; a network link's kind is a format with one
	// verb for its index (idx), which Name fills in on demand, so a
	// network builds its links without formatting a name for each.
	kind          string
	idx           int // the kind's index, or -1 when kind is the whole name
	latency       engine.Cycle
	bytesPerCycle float64
	// nextFree is fractional: serialization accumulates at byte
	// granularity so that bandwidths above one message per cycle still
	// differ (a per-message ceil would quantize every fast link to the
	// same rate).
	nextFree float64

	// Bytes is the total traffic carried, by message kind.
	Bytes [msg.NumKinds]uint64
	// Msgs counts messages carried.
	Msgs uint64
}

// NewLink creates a link with the given bandwidth in GB/s at the engine's
// clock frequency. A non-positive bandwidth means "infinite" (pure
// latency, no serialization), used by idealized configurations.
func NewLink(eng *engine.Engine, name string, gbPerSec float64, latency engine.Cycle) *Link {
	l := &Link{}
	l.init(eng, name, -1, gbPerSec, latency)
	return l
}

// init sets up l as NewLink does, named by kind and idx.
func (l *Link) init(eng *engine.Engine, kind string, idx int, gbPerSec float64, latency engine.Cycle) {
	*l = Link{eng: eng, kind: kind, idx: idx, latency: latency}
	if gbPerSec > 0 {
		l.bytesPerCycle = gbPerSec * 1e9 / eng.FrequencyHz()
	}
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string {
	if l.idx < 0 {
		return l.kind
	}
	return fmt.Sprintf(l.kind, l.idx)
}

// Send transmits a message of kind k and the given wire size, running
// deliver when the tail of the message arrives at the far end.
func (l *Link) Send(k msg.Kind, bytes int, deliver engine.Handler) {
	now := float64(l.eng.Now())
	depart := now
	if l.nextFree > depart {
		depart = l.nextFree
	}
	var ser float64
	if l.bytesPerCycle > 0 {
		ser = float64(bytes) / l.bytesPerCycle
	}
	l.nextFree = depart + ser
	l.Msgs++
	l.Bytes[k] += uint64(bytes)
	l.eng.ScheduleHandlerAt(engine.Cycle(math.Ceil(l.nextFree))+l.latency, deliver)
}

// TotalBytes returns the total traffic carried across all message kinds.
func (l *Link) TotalBytes() uint64 {
	var t uint64
	for _, b := range l.Bytes {
		t += b
	}
	return t
}

// String implements fmt.Stringer for diagnostics.
func (l *Link) String() string {
	return fmt.Sprintf("link %s: %d msgs, %d bytes", l.Name(), l.Msgs, l.TotalBytes())
}
