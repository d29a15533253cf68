package link

import (
	"slices"

	"hmg/internal/engine"
	"hmg/internal/msg"
	"hmg/internal/topo"
)

// NetConfig parameterizes the system interconnect. Bandwidths are per
// direction; latencies are one-way.
type NetConfig struct {
	// XbarPortGBs is the bandwidth of each GPM's crossbar port, per
	// direction. With GPMsPerGPU ports this yields the paper's aggregate
	// inter-GPM bandwidth (2 TB/s per GPU at 4 × 500 GB/s).
	XbarPortGBs float64
	// NVLinkGBs is the per-GPU inter-GPU link bandwidth per direction
	// (200 GB/s in Table II).
	NVLinkGBs float64
	// XbarLatency is the one-way latency of an intra-GPU hop.
	XbarLatency engine.Cycle
	// NVLinkLatency is the additional one-way latency of an inter-GPU hop
	// (on top of the crossbar hops at both ends).
	NVLinkLatency engine.Cycle
	// LocalLatency is the cost of a GPM-internal L2 visit hop.
	LocalLatency engine.Cycle
	// Sizes gives the wire size of each message kind.
	Sizes msg.Sizes
}

// DefaultNetConfig returns the Table II interconnect.
func DefaultNetConfig() NetConfig {
	return NetConfig{
		XbarPortGBs:   500,
		NVLinkGBs:     200,
		XbarLatency:   45,
		NVLinkLatency: 250,
		LocalLatency:  1,
		Sizes:         msg.DefaultSizes(),
	}
}

// Network routes messages between GPMs through crossbar ports and
// inter-GPU links, modeling bandwidth at every traversed port.
type Network struct {
	eng  *engine.Engine
	topo topo.Topology
	cfg  NetConfig

	// The four link groups are windows of one slab, links.
	links   []Link
	xbarOut []Link // per GPM, onto the GPU crossbar
	xbarIn  []Link // per GPM, from the GPU crossbar
	upLink  []Link // per GPU, to the NVSwitch
	dnLink  []Link // per GPU, from the NVSwitch

	// InterGPUMsgs counts messages that crossed GPUs, by kind.
	InterGPUMsgs [msg.NumKinds]uint64
	// IntraGPUMsgs counts messages between distinct GPMs of one GPU.
	IntraGPUMsgs [msg.NumKinds]uint64
	// LocalMsgs counts GPM-internal messages.
	LocalMsgs uint64

	// routeFree is the free list of pooled route contexts; routes counts
	// the contexts allocated and liveRoutes those in flight.
	routeFree  []*route
	routes     int
	liveRoutes int
	// routeSlabs[:numRouteSlabs] are the slabs the pool grew from, kept
	// so Reset can return every route to the free list, in flight or
	// not. Each slab doubles the pool, so maxRouteSlabs is never reached.
	routeSlabs    [maxRouteSlabs][]route
	numRouteSlabs int
}

// maxRouteSlabs bounds the route pool's growth: routeSlabMin << 31
// contexts, far beyond any machine's memory.
const maxRouteSlabs = 32

// NewNetwork builds the interconnect for a topology in two allocations
// at any size: the Network and one slab holding every link.
func NewNetwork(eng *engine.Engine, t topo.Topology, cfg NetConfig) *Network {
	n := &Network{}
	n.Reset(eng, t, cfg)
	return n
}

// Reset rebuilds n in place as NewNetwork(eng, t, cfg) builds a network:
// every link idle with no traffic counted, and every route context,
// in flight or not, back on the free list. It reuses the link slab when
// it still fits and keeps the whole route pool.
func (n *Network) Reset(eng *engine.Engine, t topo.Topology, cfg NetConfig) {
	gpms, gpus := t.TotalGPMs(), t.NumGPUs
	need := 2*gpms + 2*gpus
	links := slices.Grow(n.links[:0], need)[:need]
	// The free list has room for every context (see newRoute).
	free := n.routeFree[:0]
	for _, slab := range n.routeSlabs[:n.numRouteSlabs] {
		for i := range slab {
			slab[i] = route{}
			free = append(free, &slab[i])
		}
	}
	*n = Network{eng: eng, topo: t, cfg: cfg,
		links:         links,
		xbarOut:       links[:gpms:gpms],
		xbarIn:        links[gpms : 2*gpms : 2*gpms],
		upLink:        links[2*gpms : 2*gpms+gpus : 2*gpms+gpus],
		dnLink:        links[2*gpms+gpus:],
		routeFree:     free,
		routes:        n.routes,
		routeSlabs:    n.routeSlabs,
		numRouteSlabs: n.numRouteSlabs,
	}
	for g := 0; g < gpms; g++ {
		n.xbarOut[g].init(eng, "xbar-out[gpm%d]", g, cfg.XbarPortGBs, cfg.XbarLatency)
		n.xbarIn[g].init(eng, "xbar-in[gpm%d]", g, cfg.XbarPortGBs, 0)
	}
	for u := 0; u < gpus; u++ {
		n.upLink[u].init(eng, "nvlink-up[gpu%d]", u, cfg.NVLinkGBs, cfg.NVLinkLatency/2)
		n.dnLink[u].init(eng, "nvlink-dn[gpu%d]", u, cfg.NVLinkGBs, cfg.NVLinkLatency/2)
	}
}

// Config returns the network's configuration.
func (n *Network) Config() NetConfig { return n.cfg }

// Send routes a message like SendHandler, running the func deliver on
// arrival.
func (n *Network) Send(from, to topo.GPMID, k msg.Kind, deliver func()) {
	n.SendHandler(from, to, k, engine.Func(deliver))
}

// SendHandler routes a message of kind k from one GPM to another,
// running deliver on arrival. Same-GPM sends take only LocalLatency and
// consume no link bandwidth. Multi-hop messages travel on one pooled
// route context, so a warmed network sends without allocating.
func (n *Network) SendHandler(from, to topo.GPMID, k msg.Kind, deliver engine.Handler) {
	bytes := n.cfg.Sizes.Bytes(k)
	switch {
	case from == to:
		n.LocalMsgs++
		n.eng.ScheduleHandler(n.cfg.LocalLatency, deliver)
	case n.topo.SameGPU(from, to):
		n.IntraGPUMsgs[k]++
		r := n.newRoute(k, bytes, to, deliver)
		r.hop = hopXbarIn
		n.xbarOut[from].Send(k, bytes, r)
	default:
		n.InterGPUMsgs[k]++
		r := n.newRoute(k, bytes, to, deliver)
		r.hop = hopUp
		r.src, r.dst = n.topo.GPUOf(from), n.topo.GPUOf(to)
		n.xbarOut[from].Send(k, bytes, r)
	}
}

// routeHop names the link a route context traverses next.
type routeHop uint8

const (
	// hopUp crosses the source GPU's uplink onto the NVSwitch.
	hopUp routeHop = iota
	// hopDown crosses the destination GPU's downlink.
	hopDown
	// hopXbarIn crosses the destination GPM's crossbar input port, the
	// last hop: the route hands that link the caller's deliver handler.
	hopXbarIn
)

// route carries one multi-hop message. It is the arrival handler of
// every hop but the last and re-sends itself on the next link, so a
// message schedules exactly one event per link.
type route struct {
	n        *Network
	k        msg.Kind
	bytes    int
	to       topo.GPMID
	src, dst topo.GPUID
	hop      routeHop
	deliver  engine.Handler
	live     bool
}

// Handle runs when the message reaches the end of its current link. The
// last hop releases the route before scheduling deliver, so a route is
// live only while its message is between links.
func (r *route) Handle() {
	n := r.n
	switch r.hop {
	case hopUp:
		r.hop = hopDown
		n.upLink[r.src].Send(r.k, r.bytes, r)
	case hopDown:
		r.hop = hopXbarIn
		n.dnLink[r.dst].Send(r.k, r.bytes, r)
	case hopXbarIn:
		k, bytes, to, deliver := r.k, r.bytes, r.to, r.deliver
		n.releaseRoute(r)
		n.xbarIn[to].Send(k, bytes, deliver)
	}
}

// routeSlabMin is the size of the first slab of route contexts; later
// slabs double the pool.
const routeSlabMin = 64

// newRoute draws a route context from the free list, growing the pool
// by a slab when it is empty.
//
//lint:allow hotalloc pool growth: slabs double the pool, so warm-up is logarithmic in the peak number of messages in flight
func (n *Network) newRoute(k msg.Kind, bytes int, to topo.GPMID, deliver engine.Handler) *route {
	if len(n.routeFree) == 0 {
		if n.numRouteSlabs == maxRouteSlabs {
			panic("link: route pool exceeds its slab limit")
		}
		slab := make([]route, max(routeSlabMin, n.routes))
		n.routeSlabs[n.numRouteSlabs] = slab
		n.numRouteSlabs++
		n.routes += len(slab)
		// Room for every context, so releaseRoute never grows the list.
		n.routeFree = make([]*route, len(slab), n.routes)
		for i := range slab {
			n.routeFree[i] = &slab[i]
		}
	}
	last := len(n.routeFree) - 1
	r := n.routeFree[last]
	n.routeFree = n.routeFree[:last]
	*r = route{n: n, k: k, bytes: bytes, to: to, deliver: deliver, live: true}
	n.liveRoutes++
	return r
}

// releaseRoute returns a route context to the free list. Releasing a
// context twice panics.
func (n *Network) releaseRoute(r *route) {
	if !r.live {
		panic("link: route context released twice")
	}
	*r = route{}
	n.liveRoutes--
	n.routeFree = n.routeFree[:len(n.routeFree)+1]
	n.routeFree[len(n.routeFree)-1] = r
}

// LiveRoutes reports the route contexts currently carrying a message.
// It is zero whenever no multi-hop message is in flight.
func (n *Network) LiveRoutes() int { return n.liveRoutes }

// InterGPUBytes returns total bytes carried over inter-GPU links (up and
// down), by kind.
func (n *Network) InterGPUBytes() [msg.NumKinds]uint64 {
	var out [msg.NumKinds]uint64
	for i := range n.upLink {
		for k, b := range n.upLink[i].Bytes {
			out[k] += b
		}
	}
	for i := range n.dnLink {
		for k, b := range n.dnLink[i].Bytes {
			out[k] += b
		}
	}
	return out
}

// IntraGPUBytes returns total bytes carried over crossbar ports, by kind.
func (n *Network) IntraGPUBytes() [msg.NumKinds]uint64 {
	var out [msg.NumKinds]uint64
	for i := range n.xbarOut {
		for k, b := range n.xbarOut[i].Bytes {
			out[k] += b
		}
	}
	for i := range n.xbarIn {
		for k, b := range n.xbarIn[i].Bytes {
			out[k] += b
		}
	}
	return out
}
