package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// goldenTopo is an experiment-runner machine: gpus × gpms with the
// runner's 32 KB pages.
func goldenTopo(gpus, gpms int) topo.Topology {
	return topo.Topology{NumGPUs: gpus, GPMsPerGPU: gpms, SMsPerGPM: 8, LineSize: 128, PageSize: 32 * 1024}
}

func traceDigest(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	h := sha256.New()
	if err := trace.Encode(h, tr); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenShape is one machine shape and scale at which TestGenerateGolden
// pins the generator's output, for each of its benchmarks.
type goldenShape struct {
	name    string
	topo    topo.Topology
	scale   float64
	benches []Params
}

// goldenShapes are the pinned shapes: the whole suite at scales 1, 0.25
// and 0.1 on the runner's 4×4 machine and at 0.05 on 2×2 and 16×8; the
// hmgperf matrix benchmarks on gsim's default machine, whose 2 MB pages
// change the placement hints; and lstm with a private chunk of three
// lines, so every warp's private walk wraps around its chunk.
func goldenShapes() []goldenShape {
	var matrix []Params
	for _, n := range []string{"lstm", "MiniAMR", "bfs"} {
		p, _ := Get(n)
		matrix = append(matrix, p)
	}
	wrap, _ := Get("lstm")
	wrap.FootprintMB = 0.1
	return []goldenShape{
		{"4x4", goldenTopo(4, 4), 1, Suite()},
		{"4x4", goldenTopo(4, 4), 0.25, Suite()},
		{"4x4", goldenTopo(4, 4), 0.1, Suite()},
		{"2x2", goldenTopo(2, 2), 0.05, Suite()},
		{"16x8", goldenTopo(16, 8), 0.05, Suite()},
		{"default", gsim.DefaultConfig(8, proto.HMG).Topo, 0.25, matrix},
		{"4x4-privwrap", goldenTopo(4, 4), 0.25, []Params{wrap}},
	}
}

// goldenFile holds one "shape scale benchmark sha256" line per pinned
// trace.
const goldenFile = "testdata/golden.txt"

// TestGenerateGolden pins the encoded bytes of every trace of
// goldenShapes against goldenFile. A generator change meant as a pure
// speedup must leave every digest alone; a change meant to alter the
// workloads updates them deliberately, and every figure with them. A
// mismatch prints the line that would pin the new bytes.
func TestGenerateGolden(t *testing.T) {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 4 {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[strings.Join(f[:3], " ")] = f[3]
	}
	pinned := 0
	for _, s := range goldenShapes() {
		for _, p := range s.benches {
			key := fmt.Sprintf("%s %g %s", s.name, s.scale, p.Abbrev)
			got := traceDigest(t, p.Generate(s.topo, s.scale))
			if w, ok := want[key]; !ok || got != w {
				t.Errorf("%s: trace sha256 %s, want %q\n\t%s %s", key, got, w, key, got)
			}
			pinned++
		}
	}
	if pinned != len(want) {
		t.Errorf("%s pins %d traces, goldenShapes generates %d", goldenFile, len(want), pinned)
	}
}

// TestGoldenPrivateWalkWraps checks that the privwrap golden shape
// really wraps: its warps draw more private lines than a CTA's chunk
// holds.
func TestGoldenPrivateWalkWraps(t *testing.T) {
	for _, s := range goldenShapes() {
		if s.name != "4x4-privwrap" {
			continue
		}
		p := s.benches[0]
		numCTAs := p.CTAsPerGPM * s.topo.TotalGPMs()
		opsPerWarp := int(float64(p.OpsPerWarp) * s.scale)
		setSize := setSizeFor(p, opsPerWarp)
		l := p.layoutFor(s.topo, numCTAs, setSize)
		privLines := l.privPerCTA / lineBytes
		if private := float64(setSize) * (1 - p.SharedFrac); private <= float64(privLines) {
			t.Fatalf("privwrap: %d private lines per CTA, but a warp draws only about %.1f private slots", privLines, private)
		}
		return
	}
	t.Fatal("no privwrap golden shape")
}

// generateSuite generates every suite benchmark at scale 0.1 on the
// runner's 4×4 machine and returns the total op count.
func generateSuite() int {
	tt := goldenTopo(4, 4)
	ops := 0
	for _, p := range suite {
		ops += p.Generate(tt, 0.1).Ops()
	}
	return ops
}

// TestGenerateAllocsPerOp gates the generator's allocation rate: each
// warp stream is seeded once and its op slice allocated once, so a
// generated op costs well under one allocation. Reseeding per kernel or
// growing op slices by append each push the rate above the bound.
func TestGenerateAllocsPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the whole suite")
	}
	var ops int
	allocs := testing.AllocsPerRun(2, func() { ops = generateSuite() })
	if perOp := allocs / float64(ops); perOp >= 0.3 {
		t.Fatalf("Generate: %.3f allocs per generated op (%v allocs, %d ops), want < 0.3", perOp, allocs, ops)
	}
}

// TestGenerateAllocsPerKernel bounds Generate's allocations by a
// constant per kernel: each kernel's ops, CTAs and warps come from one
// slab apiece, and the working-set scratch is reused across warps, so
// the count does not grow with CTAs × warps.
func TestGenerateAllocsPerKernel(t *testing.T) {
	p, _ := Get("lstm")
	tt := goldenTopo(4, 4)
	allocs := testing.AllocsPerRun(3, func() { p.Generate(tt, 0.1) })
	if bound := 4*p.Kernels + 64; allocs > float64(bound) {
		t.Fatalf("lstm on 4x4: %v allocations for %d kernels × %d CTAs × %d warps, want at most %d",
			allocs, p.Kernels, p.CTAsPerGPM*tt.TotalGPMs(), p.WarpsPerCTA, bound)
	}
}

// countingSource is a lazySource that counts the values it hands out.
type countingSource struct {
	lazySource
	draws int
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.lazySource.Int63()
}

// TestGenerateDrawsEachStreamOnce checks that Generate draws each warp
// stream once, however many kernels run it: with 1 or 16 kernels, the
// trace takes the same number of random values. lstm walks tiles,
// slices and private lines; bfs and mst add false sharing and sync
// episodes.
func TestGenerateDrawsEachStreamOnce(t *testing.T) {
	tt := goldenTopo(4, 4)
	for _, name := range []string{"lstm", "bfs", "mst"} {
		p, _ := Get(name)
		draws := func(kernels int) int {
			q := p
			q.Kernels = kernels
			src := &countingSource{}
			q.generate(tt, 0.25, src)
			return src.draws
		}
		if one, many := draws(1), draws(16); one == 0 || many != one {
			t.Errorf("%s: %d random draws with 1 kernel, %d with 16, want equal and nonzero", name, one, many)
		}
	}
}

func BenchmarkGenerateSuite(b *testing.B) {
	b.ReportAllocs()
	ops := 0
	for i := 0; i < b.N; i++ {
		ops = generateSuite()
	}
	b.ReportMetric(float64(ops), "ops/suite")
}
