package gsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// syncTrace builds a three-kernel trace on the tiny 2×2 machine that
// drives every synchronizing path: atomics at .cta, .gpm, .gpu and .sys
// scope, contended atomics on one hot line (the home's line-lock queue),
// StoreRel/LoadAcq at every scope, and plain loads and stores to shared
// lines so that directories hold sharers and releases have invalidations
// to fence.
func syncTrace(gpmAtomics bool) *trace.Trace {
	const (
		hotAddr = 0x40 // every warp's contended atomics
		pages   = 6
		lines   = pages * 4096 / 128
	)
	scopes := []trace.Scope{trace.ScopeCTA, trace.ScopeGPM, trace.ScopeGPU, trace.ScopeSys}
	rng := rand.New(rand.NewSource(17))
	addr := func() topo.Addr {
		return topo.Addr(rng.Intn(lines)*128 + rng.Intn(32)*4)
	}
	tr := &trace.Trace{Name: "sync"}
	for k := 0; k < 3; k++ {
		var kern trace.Kernel
		for c := 0; c < 8; c++ {
			var cta trace.CTA
			for w := 0; w < 2; w++ {
				var ops []trace.Op
				for i := 0; i < 24; i++ {
					op := trace.Op{Addr: addr(), Gap: uint32(rng.Intn(4)), Val: uint64(rng.Intn(5))}
					switch r := rng.Intn(10); {
					case r < 3:
						op.Kind = trace.Load
					case r < 5:
						op.Kind = trace.Store
					case r < 7:
						op.Kind, op.Scope = trace.Atomic, scopes[rng.Intn(len(scopes))]
						if op.Scope == trace.ScopeGPM && !gpmAtomics {
							op.Scope = trace.ScopeGPU
						}
					case r < 8:
						op.Kind, op.Scope = trace.StoreRel, scopes[rng.Intn(len(scopes))]
					default:
						op.Kind, op.Scope = trace.LoadAcq, scopes[rng.Intn(len(scopes))]
					}
					ops = append(ops, op)
				}
				for _, sc := range scopes {
					if sc != trace.ScopeGPM || gpmAtomics {
						ops = append(ops, trace.Op{Kind: trace.Atomic, Scope: sc, Addr: hotAddr, Val: 1})
					}
				}
				cta.Warps = append(cta.Warps, trace.Warp{Ops: ops})
			}
			kern.CTAs = append(kern.CTAs, cta)
		}
		tr.Kernels = append(tr.Kernels, kern)
	}
	return tr
}

// syncVariant selects the configuration options of a syncGolden row.
type syncVariant uint8

const (
	// wb enables the write-back L2 option.
	wb syncVariant = 1 << iota
	// downgrade enables clean-eviction downgrades (Section IV).
	downgrade
	// smallL2 shrinks every L2 slice to 4 KB, which syncTrace's 24 KB
	// footprint overflows, so fills evict and clean victims downgrade.
	smallL2
	// tinyL2 shrinks every L2 slice to 1 KB, one set, so that dirty
	// victims are evicted before a release flushes them and write back.
	tinyL2
)

// syncGolden pins, per configuration, the sha256 of the OnEvent stream
// and of the codec-encoded Results of syncTrace.
var syncGolden = []struct {
	name    string
	kind    proto.Kind
	variant syncVariant
	noGPM   bool // .gpm atomics issue at .gpu scope instead
	events  string
	results string
}{
	{"NoRemoteCaching", proto.NoRemoteCache, 0, false,
		"fd448d24e8c3c318653e245711ead242eea77261197f5f28e4f50502a97cfa7d",
		"94e35b3415edafabd4b4e2fcbf856c3da94a4af2df5d6f30fbab9e595644c429"},
	{"SW-NonHier", proto.SWNonHier, 0, false,
		"3b5011ec04ac10b77dfcb2174e2790014462beb4dc898e294fc99ccf3c6f44b5",
		"af2cc325d7dda30d445cf80a693767d04191a82d035fb8333772b3ff2a2e1c5d"},
	{"SW-Hier", proto.SWHier, 0, false,
		"725ff87c3e52b02b0fa3c6cb4981aa808d9ebe56b2f49cca430660bfc4f1cc4c",
		"b5c226b3a8b1abe8ce86bdd43bf720e6f967e09bbbe48b465325d947c670aa26"},
	{"NHCC", proto.NHCC, 0, false,
		"d6ee13b619613d06c2c0361bc08154415e6beca39a8b0f204778d3debc0bae25",
		"c3083a8a09663a6eefb9c3e5451152a6416034b2b0f590fb7a297a7f562b9a9a"},
	{"HMG", proto.HMG, 0, false,
		"b8ab17d5b1ee9f15afd95761abf6f13f3dcfab8dee61889c2d60cfa524a8d40e",
		"3a43c3eab2774e17983df2b4f213f1a6e7640d5a022780284648b097c59813d9"},
	{"Ideal", proto.Ideal, 0, false,
		"d046306172c97dc6f16053f6c6c3be7919b79854e08f1ba25dbd077656d80479",
		"00b4be5746e1620aade6cb9b81402736b46d365728137617de45b49d2cdb4884"},
	// Pinned after the fix TestMCAGPMAtomicAtHome checks: before it,
	// .gpm atomics deadlocked this configuration.
	{"GPU-VI-MCA", proto.GPUVI, 0, false,
		"dc350c8cd01237f82c5b387ac9b1d967d4583fff3292aba8f7c801460b0856fd",
		"f2749e8c916c64d3f8ea70e0e364f289d457a40ad001920a54bd07097439e6f6"},
	// The GPU-VI paths without .gpm atomics, which that fix leaves alone.
	{"GPU-VI-MCA/no-gpm", proto.GPUVI, 0, true,
		"a1b70ac1d7dd9eb6f1e80725aabadf6a19071c500ad1fee5723085d460c5ddb3",
		"222e715c640990691a2baf07bfe85c889d1ea02af3bd8df06fd89da55e651df3"},
	{"CARVE", proto.CARVE, 0, false,
		"c23f27a95938ffa73c92382afa7dd744b08dbc6a37ce6485785e0f2eba1823f0",
		"02b35e614e24b6658b84490f50e620d7ce28e23bf753c8eb36e3b75e0e9a0fee"},
	{"NoRemoteCaching/wb", proto.NoRemoteCache, wb, false,
		"23ba5580d578ab430ec5345acb14be43bd52198f48780ae492d9e6e8d2f0aa81",
		"fa4bde83e91c84539fe39e47221590b93ed88d98fd56941ac87d5d1016de6ee6"},
	{"SW-NonHier/wb", proto.SWNonHier, wb, false,
		"84c7a82894141fcc0da77ca8f8970a722589e07caa9f7e1321f490aa33058530",
		"6719c9a91c80bfe6c1322e8244c51facfe58a6aac1a711f11fdfc3275fee7d9a"},
	{"SW-Hier/wb", proto.SWHier, wb, false,
		"b4215cf38a7b9c71972fd6386bd3571f014b768e5e404ebd471db1ae24eeb413",
		"737d427f8b2c5b01b0f2114932967c6d24a262f9de006079fc28f15264d30989"},
	// Re-pinned when a write-back stopped dropping its writer from the
	// directory while the writer still cached the line.
	{"NHCC/wb", proto.NHCC, wb, false,
		"9f509ffb8caf6f20b562276d4f410c1c06670ee770a639471c259a7940986b25",
		"afcf2bd6175fc67d6e4d888fea5338dd619bba4d6234e88ef0e20133a3f460f4"},
	{"HMG/wb", proto.HMG, wb, false,
		"9a5b8f3f96d795003abfa4aa3114a3af27e83c9feb392a7e572d8a274a9c762c",
		"03fcba472b7f8e2a4a9e8005beb799792ca411af27ac7335f90ac7988b44c4d4"},
	{"Ideal/wb", proto.Ideal, wb, false,
		"22ecec1de02130ebd1e0fa89cf8070d3cbd805cec6bf11e4a5a075dd91be55de",
		"7499abe19fea43bd32b203a72679bc1040ff4efcf390cb6f2f49ff1b59a01b0e"},
	// Evictions: fillL2's victim paths, the clean-eviction downgrade and
	// the dirty-eviction write-back. Pinned before the load path moved
	// onto one context per load, which left them unchanged.
	{"NHCC/4KB+downgrade", proto.NHCC, smallL2 | downgrade, false,
		"49e5b84d0216151ecd75d8d31b8a492eef0e16f6dbf30a99b2161a35961a34a7",
		"a5a5e1bbe26044e14c1b6f21ddfa617c5c3f7c0668bc5ed2e8dc7343ae1ddad2"},
	{"HMG/4KB+downgrade", proto.HMG, smallL2 | downgrade, false,
		"1e78e9387362947fd6e32e86a369e9c1463e85d2e2708f6e9f53e95d71d05532",
		"e87093524832cdbaaaaa7d848386e661854ea453bec2a10dbc8393d0201c02b1"},
	{"HMG/1KB+wb", proto.HMG, tinyL2 | wb, false,
		"1ca93272fcfa200338e27cec1297c209500eb7962c9333fe8feb622a212db6da",
		"aa8e8d41f9c051908008171fd53f97ff049a38beb35467f7870655e3f0d579b6"},
}

// TestSyncPathsGolden pins the atomic, MCA, release-fence and
// kernel-drain paths byte for byte, with the load and eviction paths
// they share: any change to when or in what order those paths schedule,
// send or emit shows up as a different event-stream or Results digest. Every pooled context must be back in its pool after
// each run.
func TestSyncPathsGolden(t *testing.T) {
	for _, g := range syncGolden {
		t.Run(g.name, func(t *testing.T) {
			cfg := tinyConfig(g.kind)
			cfg.WriteBack = g.variant&wb != 0
			cfg.Policy.Downgrade = g.variant&downgrade != 0
			switch {
			case g.variant&smallL2 != 0:
				cfg.L2Slice.CapacityBytes = 4 * 1024
			case g.variant&tinyL2 != 0:
				cfg.L2Slice.CapacityBytes = 1024
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [8]byte
			var evicts, downgrades int
			s.OnEvent = func(ev Event) {
				switch ev.Kind {
				case EvL2Evict:
					evicts++
				case EvDowngrade:
					downgrades++
				}
				for _, v := range []uint64{uint64(ev.Cycle), uint64(ev.Kind), uint64(ev.GPM), uint64(ev.SM),
					uint64(ev.Line), uint64(ev.Addr), uint64(ev.Scope), uint64(ev.Op), ev.Val, uint64(ev.Aux)} {
					binary.LittleEndian.PutUint64(buf[:], v)
					h.Write(buf[:])
				}
			}
			res, err := s.Run(syncTrace(!g.noGPM))
			if err != nil {
				t.Fatal(err)
			}
			if n := s.LiveContexts(); n != 0 {
				t.Fatalf("%d pooled contexts live after the run", n)
			}
			if res.Atomics == 0 {
				t.Fatal("trace issued no atomics")
			}
			if g.variant&(smallL2|tinyL2) != 0 && evicts == 0 {
				t.Fatal("the small slices evicted nothing")
			}
			if g.variant&downgrade != 0 && downgrades == 0 {
				t.Fatal("no downgrade was delivered")
			}
			enc, err := res.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			events := hex.EncodeToString(h.Sum(nil))
			sum := sha256.Sum256(enc)
			results := hex.EncodeToString(sum[:])
			if events != g.events || results != g.results {
				t.Errorf("digests changed:\n  events  %s (pinned %s)\n  results %s (pinned %s)",
					events, g.events, results, g.results)
			}
		})
	}
}
