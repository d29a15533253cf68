package main

import (
	"fmt"
	"time"

	"hmg/internal/cache"
	"hmg/internal/directory"
	"hmg/internal/engine"
	"hmg/internal/gsim"
	"hmg/internal/link"
	"hmg/internal/memory"
	"hmg/internal/msg"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// Layer probes: fixed operation streams timed through each inner
// layer's public functions, outside any simulation. Each reports host
// nanoseconds per operation; multiplied by a traced pass's counts they
// give a modelled split of gsim.Run's wall time.

// maxStream bounds the line stream taken from a workload trace.
const maxStream = 1 << 17

// probeInputs are the fixed streams the probes replay: the workload's
// machine and a line stream taken from its first trace.
type probeInputs struct {
	cfg   gsim.Config
	lines []topo.Line
	res   *gsim.Results
}

// linesOf flattens a trace's memory ops into their cache lines.
func linesOf(tr *trace.Trace, lineSize int) []topo.Line {
	var out []topo.Line
	for _, k := range tr.Kernels {
		for _, c := range k.CTAs {
			for _, w := range c.Warps {
				for _, op := range w.Ops {
					out = append(out, topo.Line(uint64(op.Addr)/uint64(lineSize)))
					if len(out) == maxStream {
						return out
					}
				}
			}
		}
	}
	return out
}

// layerCosts holds each probe's host nanoseconds per operation.
type layerCosts struct {
	event, lookup, fill              float64
	sharersInline, sharersPromoted   float64
	remoteLoad, remoteStore, localSt float64
	sendIntra, sendInter             float64
	dramRead, dramWrite, codec       float64
}

// nsPerOp times f, which performs n operations, three times and returns
// the median time per operation.
func nsPerOp(tr *tracer, name string, n int, f func()) float64 {
	sp := tr.begin("probe."+name, -1)
	defer tr.end(sp)
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f()
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ts)
}

// sharerCount keeps the compiler from dropping the Sharers probe's loop.
var sharerCount int

type nopHandler struct{ n int }

func (h *nopHandler) Handle() { h.n++ }

// rng is a splitmix64 stream, so every probe replays the same inputs.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func measureLayers(in probeInputs, tr *tracer) (layerCosts, error) {
	var lc layerCosts
	if len(in.lines) == 0 || in.res == nil {
		return lc, fmt.Errorf("layer probes: empty input stream")
	}
	t := in.cfg.Topo
	gpms := t.TotalGPMs()

	// engine: ScheduleHandler then Run, 1024 pending events at a time.
	const events, batch = 1 << 20, 1024
	lc.event = nsPerOp(tr, "engine", events, func() {
		eng, h, r := engine.New(0), &nopHandler{}, rng(1)
		for i := 0; i < events; i += batch {
			for j := 0; j < batch; j++ {
				eng.ScheduleHandler(engine.Cycle(r.next()%64), h)
			}
			eng.Run(engine.MaxCycle)
		}
	})

	// cache: Lookup and Fill over the trace's lines on an L2 slice.
	warm := cache.New(in.cfg.L2Slice)
	for _, l := range in.lines {
		warm.Fill(l)
	}
	lc.lookup = nsPerOp(tr, "cache.Lookup", len(in.lines), func() {
		for _, l := range in.lines {
			warm.Lookup(l)
		}
	})
	lc.fill = nsPerOp(tr, "cache.Fill", len(in.lines), func() {
		c := cache.New(in.cfg.L2Slice)
		for _, l := range in.lines {
			c.Fill(l)
		}
	})

	// directory.Sharers: With, Count, Without on inline ids (<32) and on
	// promoted ids (up to 127).
	sharers := func(name string, ids int) float64 {
		bits := make([]directory.Sharers, ids)
		for i := range bits {
			bits[i] = directory.GPMBit(i)
		}
		const n = 1 << 18
		return nsPerOp(tr, name, n, func() {
			var s directory.Sharers
			for i := 0; i < n; i++ {
				s = s.With(bits[i%ids])
				sharerCount += s.Count()
				s = s.Without(bits[(i*7+3)%ids])
			}
		})
	}
	lc.sharersInline = sharers("directory.Sharers.inline", 32)
	lc.sharersPromoted = sharers("directory.Sharers.promoted", 128)

	// proto.DirCtrl: the three Table I entry points over the trace's
	// lines, with requesters spread over every module of the machine.
	dcfg := in.cfg.Dir
	if dcfg.Shards == 0 {
		dcfg.Shards = gpms
	}
	d := proto.NewDirCtrl(dcfg)
	lc.remoteLoad = nsPerOp(tr, "proto.RemoteLoad", len(in.lines), func() {
		for i, l := range in.lines {
			d.RemoteLoad(l, proto.GPMRequester(i%gpms))
		}
	})
	lc.remoteStore = nsPerOp(tr, "proto.RemoteStore", len(in.lines), func() {
		for i, l := range in.lines {
			d.RemoteStore(l, proto.GPMRequester((i*5+1)%gpms))
		}
	})
	lc.localSt = nsPerOp(tr, "proto.LocalStore", len(in.lines), func() {
		for _, l := range in.lines {
			d.LocalStore(l)
		}
	})

	// link.Network.Send: intra-GPU (2 hops) and inter-GPU (4 hops)
	// messages, delivered by the engine.
	intraTo := func(g int) topo.GPMID { return topo.GPMID(g ^ 1) }
	interTo := func(g int) topo.GPMID { return topo.GPMID((g + t.GPMsPerGPU) % gpms) }
	if !t.SameGPU(0, intraTo(0)) || t.SameGPU(0, interTo(0)) {
		return lc, fmt.Errorf("layer probes: unexpected GPM numbering on %v", t)
	}
	send := func(name string, to func(int) topo.GPMID) float64 {
		const n = 1 << 17
		return nsPerOp(tr, name, n, func() {
			eng := engine.New(0)
			net := link.NewNetwork(eng, t, in.cfg.Net)
			deliver := func() {}
			for i := 0; i < n; i += batch {
				for j := 0; j < batch; j++ {
					from := (i + j) % gpms
					net.Send(topo.GPMID(from), to(from), msg.LoadReq, deliver)
				}
				eng.Run(engine.MaxCycle)
			}
		})
	}
	lc.sendIntra = send("link.Send.intra", intraTo)
	lc.sendInter = send("link.Send.inter", interTo)

	// memory.DRAM: Read (one event each) and posted Write.
	const dramOps = 1 << 18
	lc.dramRead = nsPerOp(tr, "memory.Read", dramOps, func() {
		eng := engine.New(0)
		dr := memory.New(eng, in.cfg.DRAM)
		done := func() {}
		for i := 0; i < dramOps; i += batch {
			for j := 0; j < batch; j++ {
				dr.Read(in.lines[(i+j)%len(in.lines)], done)
			}
			eng.Run(engine.MaxCycle)
		}
	})
	lc.dramWrite = nsPerOp(tr, "memory.Write", dramOps, func() {
		dr := memory.New(engine.New(0), in.cfg.DRAM)
		for i := 0; i < dramOps; i++ {
			dr.Write(in.cfg.DRAM.LineSize, nil)
		}
	})

	// gsim.Results codec: one marshal and one unmarshal per operation.
	const codecOps = 1 << 15
	var codecErr error
	lc.codec = nsPerOp(tr, "gsim.codec", codecOps, func() {
		for i := 0; i < codecOps; i++ {
			buf, err := in.res.MarshalBinary()
			if err == nil {
				_, err = gsim.UnmarshalResults(buf)
			}
			if err != nil {
				codecErr = err
				return
			}
		}
	})
	return lc, codecErr
}

// modelSplit multiplies the traced counts by the probes' costs. The
// link and DRAM costs include the engine events of their hops, so those
// events are not charged to the engine again.
type modelSplit struct {
	engine, cache, directory, link, memory float64 // seconds
}

func (m modelSplit) total() float64 { return m.engine + m.cache + m.directory + m.link + m.memory }

func splitRun(lc *layerCounts, c layerCosts) modelSplit {
	hopEvents := 4*lc.interMsgs + 2*lc.intraMsgs + lc.localMsgs + lc.dramReads
	var other uint64
	if lc.events > hopEvents {
		other = lc.events - hopEvents
	}
	const ns = 1e-9
	return modelSplit{
		engine:    float64(other) * c.event * ns,
		cache:     (float64(lc.l1Lookups+lc.l2Lookups)*c.lookup + float64(lc.l1Fills+lc.l2Fills)*c.fill) * ns,
		directory: (float64(lc.remoteLoads)*c.remoteLoad + float64(lc.storesSeen)*c.remoteStore) * ns,
		link:      (float64(lc.interMsgs)*c.sendInter + float64(lc.intraMsgs)*c.sendIntra + float64(lc.localMsgs)*c.event) * ns,
		memory:    (float64(lc.dramReads)*c.dramRead + float64(lc.dramWrites)*c.dramWrite) * ns,
	}
}
