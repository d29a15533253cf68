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
// and of the codec-encoded Results of syncTrace. Every results digest
// was re-pinned once when the record became the internal/wire encoding
// (no leading version byte, a zigzag protocol kind): each new value is
// the wire encoding of the Results the previous codec pinned, so no
// Results field moved.
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
		"94331e4215a2be369f643fc0db04c98120013c9a332a19f311efbe9151697e7f"},
	{"SW-NonHier", proto.SWNonHier, 0, false,
		"3b5011ec04ac10b77dfcb2174e2790014462beb4dc898e294fc99ccf3c6f44b5",
		"0be5996505449694a58419278b0bc3cd6ffd43575cba2bfc519a5f1e5396819e"},
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"SW-Hier", proto.SWHier, 0, false,
		"1bb6116de64fe847e9bb4368b849955a9e8f6c90045c49c39e8662778840c39d",
		"ce7bed0b0e1f67152bc35f7cab247d5254a7e59a06d0344f828df246bee2e8c6"},
	{"NHCC", proto.NHCC, 0, false,
		"d6ee13b619613d06c2c0361bc08154415e6beca39a8b0f204778d3debc0bae25",
		"efdfb8bdfec6d7336e43fddcc02abfcfefab50baa22994ae794966f672a5bbef"},
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"HMG", proto.HMG, 0, false,
		"1303e9f710c305df4f101e1313b538e460a93c1959fa467cea9d1645dd744ab5",
		"83ded45cc0a87e25cfd62a202ddcad42f972a8c0be48c906531da1a7582969ae"},
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"Ideal", proto.Ideal, 0, false,
		"c25f0144e6ddf6acd4261a3239f69de724191775bf7df8833de96e68d051986e",
		"224ee9a2f6644bc224429ac50b5e7db2e47879a0a6049f0a2b23dbfe342075f5"},
	// Pinned after the fix TestMCAGPMAtomicAtHome checks: before it,
	// .gpm atomics deadlocked this configuration.
	{"GPU-VI-MCA", proto.GPUVI, 0, false,
		"dc350c8cd01237f82c5b387ac9b1d967d4583fff3292aba8f7c801460b0856fd",
		"dc34b8a974ee67bd251b9f902dd147029412a524a82f70820bd30786250b7d49"},
	// The GPU-VI paths without .gpm atomics, which that fix leaves alone.
	{"GPU-VI-MCA/no-gpm", proto.GPUVI, 0, true,
		"a1b70ac1d7dd9eb6f1e80725aabadf6a19071c500ad1fee5723085d460c5ddb3",
		"bbf8b7fdecd1e0b54e66021f7bc035b8339e70cc79a73e1b822fc456180b56d2"},
	// Re-pinned when a CARVE fill whose region turned read-write while
	// it was in flight stopped installing in a remote slice.
	{"CARVE", proto.CARVE, 0, false,
		"0c92b6d8e668a3f23c4a346dd74d7ae6eb8eaf1903d920bc3e360141b20ed263",
		"9b63bc7d0e23fff89461fb53fa9d0a0461a2c2f00d6778d95a2d3679d9456498"},
	{"NoRemoteCaching/wb", proto.NoRemoteCache, wb, false,
		"23ba5580d578ab430ec5345acb14be43bd52198f48780ae492d9e6e8d2f0aa81",
		"8d5dfbf59cb5fd73515ea1277cd31b68ad2b99f0825e58ac06b01fe27f2469b0"},
	{"SW-NonHier/wb", proto.SWNonHier, wb, false,
		"84c7a82894141fcc0da77ca8f8970a722589e07caa9f7e1321f490aa33058530",
		"0dceaae6a7f3279b83858d767c5161ca270cf047a6429cf03f63a57bf9e560d8"},
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"SW-Hier/wb", proto.SWHier, wb, false,
		"bd62a1f76f67bff616f80ff2031572b1d808b040e712b25377690bd06f8a9855",
		"a761c8a9791fcc8e7cd97e718e70c97d59573a47fd2c37429f346dcd0ef132a8"},
	// Re-pinned when a write-back stopped dropping its writer from the
	// directory while the writer still cached the line.
	{"NHCC/wb", proto.NHCC, wb, false,
		"9f509ffb8caf6f20b562276d4f410c1c06670ee770a639471c259a7940986b25",
		"58346ae79e7625eb2e20ef496433542be5c0c28caee25f6ecc21d9174652af21"},
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"HMG/wb", proto.HMG, wb, false,
		"8cec98efd11aad41586a537f2cd2038f782d2b3f7d00d95b16416500ac1e6c0f",
		"3f40c8b28beb650152f67b21649bc3e4b51b64e15375ad0bed4961f9c9c1ca2a"},
	// Re-pinned when a home's atomic stopped installing an absent line
	// under value tracking, which had made tracking change timing.
	{"Ideal/wb", proto.Ideal, wb, false,
		"bb853e532e3738149b896fbf4199cda7c5c829a2c439398ce4fccb0cd4bc6614",
		"ccbf9eec98518c9d0f9ff50bc4cc8af61c5638e29482193e5c47818e9709ae96"},
	// Evictions: the slice victim path (l2Displaced), the clean-eviction
	// downgrade and the dirty-eviction write-back.
	//
	// Re-pinned when a home's DRAM fill began emitting EvL2Evict for the
	// line it displaces (the Results are unchanged).
	{"NHCC/4KB+downgrade", proto.NHCC, smallL2 | downgrade, false,
		"0288e90af8ddf477928965408147b8fccc70d0fa86d13c68618c7c639d6bf857",
		"cb95cbbaf69cdc29739f1e4f759e32a3275ca69f26a228944ec85677020cf7b5"},
	// Re-pinned twice over: a home's atomic no longer installs an absent
	// line under value tracking, and a home's DRAM fill now emits
	// EvL2Evict for its victim and writes a dirty one back.
	{"HMG/4KB+downgrade", proto.HMG, smallL2 | downgrade, false,
		"c348fe12708fe88ab31211e854fb96de22c461f1761fa4e4b69dccc600671fdd",
		"0f2e72c30a9f530a894f90b8d1d21ad62b0886531d7066f94ac874b267506097"},
	// Re-pinned twice over: a home's atomic no longer installs an absent
	// line under value tracking, and a home's DRAM fill now emits
	// EvL2Evict for its victim and writes a dirty one back.
	{"HMG/1KB+wb", proto.HMG, tinyL2 | wb, false,
		"09842a65b1f5701977f91247a53d9c4c5b3f6f7ae36472df1f22a49706ac17c3",
		"ef8e0754cb12ace9c0db37b97a76b6234938faeee799897d7a49bda0e573183b"},
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
