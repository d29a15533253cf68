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
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"SW-Hier", proto.SWHier, 0, false,
		"1bb6116de64fe847e9bb4368b849955a9e8f6c90045c49c39e8662778840c39d",
		"64e10392efe955fbf7c2fa9a699efc87bda30526e8e286e04304b911f31187e0"},
	{"NHCC", proto.NHCC, 0, false,
		"d6ee13b619613d06c2c0361bc08154415e6beca39a8b0f204778d3debc0bae25",
		"c3083a8a09663a6eefb9c3e5451152a6416034b2b0f590fb7a297a7f562b9a9a"},
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"HMG", proto.HMG, 0, false,
		"1303e9f710c305df4f101e1313b538e460a93c1959fa467cea9d1645dd744ab5",
		"187af2888000124ced25024260ef8358d05d8f0617415853e0109985463c64a2"},
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"Ideal", proto.Ideal, 0, false,
		"c25f0144e6ddf6acd4261a3239f69de724191775bf7df8833de96e68d051986e",
		"22d3300c22e2980590759c17aaabe9ea8466a0e25dfa7f8a2bd4b699092f3be0"},
	// Pinned after the fix TestMCAGPMAtomicAtHome checks: before it,
	// .gpm atomics deadlocked this configuration.
	{"GPU-VI-MCA", proto.GPUVI, 0, false,
		"dc350c8cd01237f82c5b387ac9b1d967d4583fff3292aba8f7c801460b0856fd",
		"f2749e8c916c64d3f8ea70e0e364f289d457a40ad001920a54bd07097439e6f6"},
	// The GPU-VI paths without .gpm atomics, which that fix leaves alone.
	{"GPU-VI-MCA/no-gpm", proto.GPUVI, 0, true,
		"a1b70ac1d7dd9eb6f1e80725aabadf6a19071c500ad1fee5723085d460c5ddb3",
		"222e715c640990691a2baf07bfe85c889d1ea02af3bd8df06fd89da55e651df3"},
	// Re-pinned when a CARVE fill whose region turned read-write while
	// it was in flight stopped installing in a remote slice.
	{"CARVE", proto.CARVE, 0, false,
		"0c92b6d8e668a3f23c4a346dd74d7ae6eb8eaf1903d920bc3e360141b20ed263",
		"fece60635fc6d1516ea06b8ead2b5be2a60bcc04989dc8a2bb3622965d4ef9a0"},
	{"NoRemoteCaching/wb", proto.NoRemoteCache, wb, false,
		"23ba5580d578ab430ec5345acb14be43bd52198f48780ae492d9e6e8d2f0aa81",
		"fa4bde83e91c84539fe39e47221590b93ed88d98fd56941ac87d5d1016de6ee6"},
	{"SW-NonHier/wb", proto.SWNonHier, wb, false,
		"84c7a82894141fcc0da77ca8f8970a722589e07caa9f7e1321f490aa33058530",
		"6719c9a91c80bfe6c1322e8244c51facfe58a6aac1a711f11fdfc3275fee7d9a"},
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"SW-Hier/wb", proto.SWHier, wb, false,
		"bd62a1f76f67bff616f80ff2031572b1d808b040e712b25377690bd06f8a9855",
		"ddcded5b0192df7620a920326cf3984da5384bb49ed4e5fc8ed00cfbe3821674"},
	// Re-pinned when a write-back stopped dropping its writer from the
	// directory while the writer still cached the line.
	{"NHCC/wb", proto.NHCC, wb, false,
		"9f509ffb8caf6f20b562276d4f410c1c06670ee770a639471c259a7940986b25",
		"afcf2bd6175fc67d6e4d888fea5338dd619bba4d6234e88ef0e20133a3f460f4"},
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"HMG/wb", proto.HMG, wb, false,
		"8cec98efd11aad41586a537f2cd2038f782d2b3f7d00d95b16416500ac1e6c0f",
		"2720ba4c86d65279bf3f1385c67b8de970a5b26cb9ec7e4dc90142a9e7d817a1"},
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"Ideal/wb", proto.Ideal, wb, false,
		"bb853e532e3738149b896fbf4199cda7c5c829a2c439398ce4fccb0cd4bc6614",
		"96854e54c23c1bac65f0026b6c92263933e5abfed90a91858394464fafd328f6"},
	// Evictions: the slice victim path (l2Displaced), the clean-eviction
	// downgrade and the dirty-eviction write-back.
	//
	// Re-pinned when a home's DRAM fill began emitting EvL2Evict for the
	// line it displaces (the Results are unchanged).
	{"NHCC/4KB+downgrade", proto.NHCC, smallL2 | downgrade, false,
		"0288e90af8ddf477928965408147b8fccc70d0fa86d13c68618c7c639d6bf857",
		"a5a5e1bbe26044e14c1b6f21ddfa617c5c3f7c0668bc5ed2e8dc7343ae1ddad2"},
	// Re-pinned twice over: a home's atomic no longer installs an absent
	// line under value tracking, and a home's DRAM fill now emits
	// EvL2Evict for its victim and writes a dirty one back.
	{"HMG/4KB+downgrade", proto.HMG, smallL2 | downgrade, false,
		"c348fe12708fe88ab31211e854fb96de22c461f1761fa4e4b69dccc600671fdd",
		"24f618f95fcb8ba927eb23cb35b4bb655cf520b454e4ae07f2ceb573d7dbebd6"},
	// Re-pinned twice over: a home's atomic no longer installs an absent
	// line under value tracking, and a home's DRAM fill now emits
	// EvL2Evict for its victim and writes a dirty one back.
	{"HMG/1KB+wb", proto.HMG, tinyL2 | wb, false,
		"09842a65b1f5701977f91247a53d9c4c5b3f6f7ae36472df1f22a49706ac17c3",
		"2f9fbe88dc747c4ec62dbb094b0aa0b50b96387b20fb0f797e833820c2c592e3"},
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
