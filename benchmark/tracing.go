package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hmg/internal/gsim"
	"hmg/internal/msg"
)

// span is one timed call from the benchmark into a layer. Spans are kept
// in memory and written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the children's durations
}

// tracer records spans. A nil tracer records nothing, so untraced code
// paths call the same methods.
type tracer struct {
	origin time.Time
	run    string
	spans  []span
}

func newTracer(run string) *tracer { return &tracer{origin: time.Now(), run: run} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: time.Since(t.origin).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
}

// finish computes self times. The benchmark's spans are sequential on
// one goroutine, so a parent's children never overlap each other.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self += t.spans[i].End - t.spans[i].Start
		if p := t.spans[i].Parent; p >= 0 {
			t.spans[p].Self -= t.spans[i].End - t.spans[i].Start
		}
	}
}

// self sums the self time of the spans whose name starts with prefix.
func (t *tracer) self(prefix string) time.Duration {
	var ns int64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			ns += s.Self
		}
	}
	return time.Duration(ns)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// numEventKinds is the size of gsim's event-kind enumeration.
const numEventKinds = int(gsim.EvDowngrade) + 1

// layerCounts accumulates, over the cells of a traced pass, the counts
// an OnEvent sink sees and the counters the inner layers expose after a
// run.
type layerCounts struct {
	genAllocs, runAllocs uint64
	ops, events          uint64
	cycles, drain        uint64

	l1Lookups, l1Hits, l1Fills uint64
	l2Lookups, l2Hits, l2Fills uint64

	storesSeen, storesShared, storesWithInv    uint64
	linesInvByStores, evicts, linesInvByEvicts uint64
	live, remoteLoads                          uint64

	interMsgs, intraMsgs, localMsgs, invMsgs, interBytes uint64
	dramReads, dramWrites                                uint64

	ev [numEventKinds]uint64
}

// countEvent is the traced run's OnEvent sink. It only counts.
func (lc *layerCounts) countEvent(e gsim.Event) {
	if int(e.Kind) < numEventKinds {
		lc.ev[e.Kind]++
	}
}

// add accumulates one finished run: the sums gsim already aggregates
// into its Results, plus the counters Results lacks (cache fills, live
// directory entries, message counts), read from the system.
func (lc *layerCounts) add(sys *gsim.System, res *gsim.Results, runAllocs uint64) {
	lc.runAllocs += runAllocs
	lc.ops += res.Ops
	lc.events += res.EventsExecuted
	lc.cycles += uint64(res.Cycles)
	lc.drain += uint64(res.DrainCycles)
	lc.l1Lookups += res.L1Hits + res.L1Misses
	lc.l1Hits += res.L1Hits
	lc.l2Lookups += res.L2Hits + res.L2Misses
	lc.l2Hits += res.L2Hits
	lc.dramReads += res.DRAMReads
	lc.dramWrites += res.DRAMWrites
	lc.storesSeen += res.DirStoresSeen
	lc.storesShared += res.DirStoresShared
	lc.storesWithInv += res.DirStoresWithInv
	lc.linesInvByStores += res.LinesInvByStores
	lc.evicts += res.DirEvicts
	lc.linesInvByEvicts += res.LinesInvByEvicts
	lc.invMsgs += res.InvMsgsOnWire
	lc.interBytes += res.InterGPUBytes
	for _, sm := range sys.SMs {
		lc.l1Fills += sm.L1.Stats.Fills
	}
	for _, g := range sys.GPMs {
		lc.l2Fills += g.L2.Stats.Fills
		if g.Dir != nil {
			lc.live += uint64(g.Dir.Dir.Live())
		}
	}
	for k := 0; k < msg.NumKinds; k++ {
		lc.interMsgs += sys.Net.InterGPUMsgs[k]
		lc.intraMsgs += sys.Net.IntraGPUMsgs[k]
	}
	if sys.Cfg.Policy.Hardware {
		// Every load request reaching another module's home consults its
		// directory.
		lc.remoteLoads += sys.Net.InterGPUMsgs[msg.LoadReq] + sys.Net.IntraGPUMsgs[msg.LoadReq]
	}
	lc.localMsgs += sys.Net.LocalMsgs
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
