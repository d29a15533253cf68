package link

import (
	"reflect"
	"testing"
	"testing/quick"

	"hmg/internal/engine"
	"hmg/internal/msg"
	"hmg/internal/topo"
)

func testTopo() topo.Topology {
	return topo.Topology{NumGPUs: 2, GPMsPerGPU: 2, SMsPerGPM: 1, LineSize: 128, PageSize: 4096}
}

func TestLinkLatencyOnly(t *testing.T) {
	e := engine.New(0)
	l := NewLink(e, "test", 0, 100) // infinite bandwidth
	var at engine.Cycle
	l.Send(msg.LoadReq, 1<<20, engine.Func(func() { at = e.Now() }))
	e.Drain()
	if at != 100 {
		t.Fatalf("delivered at %d, want 100 (no serialization on infinite link)", at)
	}
}

func TestLinkSerialization(t *testing.T) {
	e := engine.New(1.3e9)
	// 130 GB/s at 1.3 GHz = 100 bytes/cycle.
	l := NewLink(e, "test", 130, 10)
	var first, second engine.Cycle
	l.Send(msg.DataResp, 1000, engine.Func(func() { first = e.Now() })) // 10 ser cycles
	l.Send(msg.DataResp, 500, engine.Func(func() { second = e.Now() })) // queued behind
	e.Drain()
	if first != 20 { // depart 0, ser 10, +lat 10
		t.Fatalf("first delivered at %d, want 20", first)
	}
	if second != 25 { // depart 10, ser 5, +lat 10
		t.Fatalf("second delivered at %d, want 25", second)
	}
	if l.Msgs != 2 {
		t.Fatalf("Msgs = %d, want 2", l.Msgs)
	}
	if got := l.Bytes[msg.DataResp]; got != 1500 {
		t.Fatalf("Bytes[DataResp] = %d, want 1500", got)
	}
	if l.TotalBytes() != 1500 {
		t.Fatalf("TotalBytes = %d", l.TotalBytes())
	}
}

func TestLinkBacklogDrains(t *testing.T) {
	e := engine.New(1.3e9)
	l := NewLink(e, "test", 130, 0) // 100 B/cyc
	delivered := 0
	for i := 0; i < 50; i++ {
		l.Send(msg.LoadReq, 100, engine.Func(func() { delivered++ }))
	}
	end := e.Drain()
	if delivered != 50 {
		t.Fatalf("delivered %d of 50", delivered)
	}
	if end != 50 { // 50 messages × 1 cycle each, FIFO
		t.Fatalf("drained at %d, want 50", end)
	}
}

// arrival is a reusable deliver handler that records its arrival cycle.
type arrival struct {
	e  *engine.Engine
	at engine.Cycle
}

func (a *arrival) Handle() { a.at = a.e.Now() }

// linkCounts snapshots every link's message count and per-kind bytes.
func linkCounts(n *Network) []uint64 {
	var out []uint64
	for _, links := range [][]Link{n.xbarOut, n.xbarIn, n.upLink, n.dnLink} {
		for i := range links {
			out = append(out, links[i].Msgs)
			out = append(out, links[i].Bytes[:]...)
		}
	}
	return out
}

// sendBothForms sends one message from→to through the func adapter and
// through SendHandler on two fresh, identical networks. Both forms must
// deliver at the same cycle with the same per-link Msgs and Bytes, and
// a warmed SendHandler of the same route must not allocate. It returns
// the func-form network and its delivery cycle.
func sendBothForms(t *testing.T, cfg NetConfig, from, to topo.GPMID, k msg.Kind) (*Network, engine.Cycle) {
	t.Helper()
	fe := engine.New(0)
	fn := NewNetwork(fe, testTopo(), cfg)
	var at engine.Cycle
	fn.Send(from, to, k, func() { at = fe.Now() })
	fe.Drain()

	he := engine.New(0)
	hn := NewNetwork(he, testTopo(), cfg)
	h := &arrival{e: he}
	hn.SendHandler(from, to, k, h)
	he.Drain()
	if h.at != at {
		t.Fatalf("SendHandler delivered at %d, func adapter at %d", h.at, at)
	}
	if got, want := linkCounts(hn), linkCounts(fn); !reflect.DeepEqual(got, want) {
		t.Fatalf("per-link counts differ: handler %v, func %v", got, want)
	}
	if hn.LocalMsgs != fn.LocalMsgs || hn.IntraGPUMsgs != fn.IntraGPUMsgs || hn.InterGPUMsgs != fn.InterGPUMsgs {
		t.Fatal("network message counters differ between the two forms")
	}
	if hn.LiveRoutes() != 0 {
		t.Fatalf("%d route contexts live after delivery", hn.LiveRoutes())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		hn.SendHandler(from, to, k, h)
		he.Drain()
	}); allocs != 0 {
		t.Fatalf("warmed SendHandler %d→%d allocates %.1f times per message", from, to, allocs)
	}
	return fn, at
}

// TestNetworkBuildsFromOneSlab: a network of any size is two
// allocations, and each link still reports its own name.
func TestNetworkBuildsFromOneSlab(t *testing.T) {
	e := engine.New(1.3e9)
	for _, tp := range []topo.Topology{
		{NumGPUs: 2, GPMsPerGPU: 2, SMsPerGPM: 1, LineSize: 128, PageSize: 4096},
		{NumGPUs: 16, GPMsPerGPU: 8, SMsPerGPM: 1, LineSize: 128, PageSize: 4096},
	} {
		if a := testing.AllocsPerRun(5, func() { NewNetwork(e, tp, DefaultNetConfig()) }); a != 2 {
			t.Errorf("NewNetwork(%v): %v allocations, want 2", tp, a)
		}
	}
	n := NewNetwork(e, topo.Topology{NumGPUs: 2, GPMsPerGPU: 2, SMsPerGPM: 1, LineSize: 128, PageSize: 4096}, DefaultNetConfig())
	for _, c := range []struct {
		l    *Link
		want string
	}{
		{&n.xbarOut[3], "xbar-out[gpm3]"},
		{&n.xbarIn[0], "xbar-in[gpm0]"},
		{&n.upLink[1], "nvlink-up[gpu1]"},
		{&n.dnLink[0], "nvlink-dn[gpu0]"},
		{NewLink(e, "test", 0, 1), "test"},
	} {
		if got := c.l.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestNetworkLocalSend(t *testing.T) {
	n, at := sendBothForms(t, DefaultNetConfig(), 1, 1, msg.LoadReq)
	if at != DefaultNetConfig().LocalLatency {
		t.Fatalf("local send at %d, want %d", at, DefaultNetConfig().LocalLatency)
	}
	if n.LocalMsgs != 1 {
		t.Fatalf("LocalMsgs = %d", n.LocalMsgs)
	}
	if n.InterGPUBytes()[msg.LoadReq] != 0 {
		t.Fatal("local send leaked onto inter-GPU links")
	}
}

func TestNetworkIntraGPU(t *testing.T) {
	cfg := DefaultNetConfig()
	n, at := sendBothForms(t, cfg, 0, 1, msg.LoadReq) // GPMs 0,1 share GPU 0
	if at < cfg.XbarLatency {
		t.Fatalf("intra-GPU send at %d, want >= %d", at, cfg.XbarLatency)
	}
	if n.IntraGPUMsgs[msg.LoadReq] != 1 {
		t.Fatalf("IntraGPUMsgs = %d", n.IntraGPUMsgs[msg.LoadReq])
	}
	if n.InterGPUBytes()[msg.LoadReq] != 0 {
		t.Fatal("intra-GPU send crossed GPUs")
	}
	if got := n.IntraGPUBytes()[msg.LoadReq]; got != uint64(2*cfg.Sizes.Bytes(msg.LoadReq)) {
		t.Fatalf("IntraGPUBytes = %d, want both ports charged", got)
	}
}

func TestNetworkInterGPU(t *testing.T) {
	cfg := DefaultNetConfig()
	n, at := sendBothForms(t, cfg, 0, 3, msg.DataResp) // GPU0 → GPU1
	min := cfg.XbarLatency + cfg.NVLinkLatency
	if at < min {
		t.Fatalf("inter-GPU send at %d, want >= %d", at, min)
	}
	if n.InterGPUMsgs[msg.DataResp] != 1 {
		t.Fatalf("InterGPUMsgs = %d", n.InterGPUMsgs[msg.DataResp])
	}
	want := uint64(2 * cfg.Sizes.Bytes(msg.DataResp)) // up + down
	if got := n.InterGPUBytes()[msg.DataResp]; got != want {
		t.Fatalf("InterGPUBytes = %d, want %d", got, want)
	}
}

func TestNetworkInterGPUSaturation(t *testing.T) {
	e := engine.New(1.3e9)
	cfg := DefaultNetConfig()
	cfg.NVLinkGBs = 130 // 100 B/cycle
	cfg.XbarPortGBs = 0 // infinite, isolate the NVLink
	n := NewNetwork(e, testTopo(), cfg)
	const msgs = 100
	done := 0
	for i := 0; i < msgs; i++ {
		n.Send(0, 2, msg.DataResp, func() { done++ })
	}
	end := e.Drain()
	if done != msgs {
		t.Fatalf("delivered %d of %d", done, msgs)
	}
	// 100 messages × 144 bytes at 100 B/cyc ≈ 144 cycles of serialization
	// on the uplink alone; total time must reflect that backlog.
	if end < 144 {
		t.Fatalf("saturated run finished at %d, want >= 144 (bandwidth not modeled?)", end)
	}
}

func TestNetworkMessagesArriveInOrderPerRoute(t *testing.T) {
	e := engine.New(1.3e9)
	n := NewNetwork(e, testTopo(), DefaultNetConfig())
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		n.Send(0, 3, msg.LoadReq, func() { order = append(order, i) })
	}
	e.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated on fixed route: %v", order)
		}
	}
}

func TestBandwidthSweepMonotone(t *testing.T) {
	// Higher NVLink bandwidth must never slow down a fixed message load.
	prev := engine.Cycle(engine.MaxCycle)
	for _, gbs := range []float64{100, 200, 300, 400} {
		e := engine.New(1.3e9)
		cfg := DefaultNetConfig()
		cfg.NVLinkGBs = gbs
		n := NewNetwork(e, testTopo(), cfg)
		for i := 0; i < 200; i++ {
			n.Send(0, 2, msg.DataResp, func() {})
		}
		end := e.Drain()
		if end > prev {
			t.Fatalf("at %v GB/s run took %d cycles, slower than lower bandwidth (%d)", gbs, end, prev)
		}
		prev = end
	}
}

// Property: messages on one link always deliver in send order (FIFO),
// and total bytes accounting matches what was sent.
func TestLinkFIFOProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		e := engine.New(1.3e9)
		l := NewLink(e, "p", 100, 7)
		var order []int
		var want uint64
		for i, sz := range sizes {
			i := i
			b := int(sz%2000) + 1
			want += uint64(b)
			l.Send(msg.LoadReq, b, engine.Func(func() { order = append(order, i) }))
		}
		e.Drain()
		if len(order) != len(sizes) {
			return false
		}
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return l.TotalBytes() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
