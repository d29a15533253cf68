package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

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

// TestGenerateGolden pins the encoded bytes of every generated suite
// trace at scale 0.1 on the runner's 4×4 machine, plus the sync-heavy
// mst on 2×2 at scale 0.05. A generator change meant as a pure speedup
// must leave every digest alone; a change meant to alter the workloads
// updates them deliberately, and every figure with them.
func TestGenerateGolden(t *testing.T) {
	want := map[string]string{
		"MiniAMR":     "8c46bc8fab8e8e696b49b81f2c2c480e37e2cea477a7849a860dd60c2591bf85",
		"overfeat":    "ef18ccf25eb4df0771526421b614e4f60672d50014c197ea9a21387696d24563",
		"AlexNet":     "c1c0060795e48e2f2e724b412ef4ed950c347aa207c32c11fb4dbe7520113a41",
		"CoMD":        "3cd8d7ebca1f651dba57d6df4aaed211a174be466a5e4a14693eedd377f6a959",
		"HPGMG":       "1b822a8058b38d13c689c0719637febdc5497765b8ec1734f57439359578f0f9",
		"MiniContact": "ff8955a8c52a5b68db341bb96086b4768a76d876bbe3b7edc5a77f4f4c47e267",
		"pathfinder":  "4af78575e4ab86ecf7573465069003d690ffafbd42f5d82bfa6af169ad0c0d3e",
		"Nekbone":     "16d97e7f546f6f30540e47c30e279a1c12c7f1fa30c399dc747b1c09fd072cb6",
		"namd2.10":    "5ffbbef1abfbe5f5c2a3f9eed5f2d4ed2f4fc17e1207bdde922b0f5927226280",
		"cuSolver":    "7b3052894c16148b7c5578ff1226f1d593cc0ff5e4d96baaeb7fd4c09c12a82f",
		"resnet":      "799606c412195550ca91eacbaab7f442e7c6d15b1c157322c71b4c659630caf6",
		"mst":         "11c405e14f71226d7337b7166da0adfae0d9f7b2731423ee2a04380dae42c300",
		"nw-16K":      "8fc7210b00cb23422bfbd2a350b5c57b53e441cf2ef906f039a40be703cc75bc",
		"lstm":        "9abee3df04265df718f5d160fdf3780871e3bf0e2d2b0d477e44632f55bd8d33",
		"RNN_FW":      "a47d135640dfa95bca74ff31dc0d7acba270a445d64db2ea8541541859f01a36",
		"RNN_DGRAD":   "1815a3d6e5f9b10046d507cc9a22412d8e2e734a334d15ae3fbad0f4740364da",
		"GoogLeNet":   "ef92513f0ae714d3abd184384ac334f60d9ba5083345d243620d3cbb6c3a1557",
		"bfs":         "5713c11218aa6b81be6c45dff4dc7d2541fb0c9eddb80508efa1efcf12029007",
		"snap":        "88fafb3cdf54f767bb6b16f2e3063839921b8f9903bf82d6462cf2299760b12a",
		"RNN_WGRAD":   "be30ebc3e0f2a422573282a0fb201826295b83874ebf56b452f695773a666102",
	}
	tt := goldenTopo(4, 4)
	for _, p := range Suite() {
		if got := traceDigest(t, p.Generate(tt, 0.1)); got != want[p.Abbrev] {
			t.Errorf("%s: trace sha256 %s, want %s", p.Abbrev, got, want[p.Abbrev])
		}
	}
	const mst2x2 = "d733674b5689d9d7c61519e042691fbec2c0c83a5235fb0bce65550f1d9792fa"
	p, _ := Get("mst")
	if got := traceDigest(t, p.Generate(goldenTopo(2, 2), 0.05)); got != mst2x2 {
		t.Errorf("mst on 2x2 at scale 0.05: trace sha256 %s, want %s", got, mst2x2)
	}
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

func BenchmarkGenerateSuite(b *testing.B) {
	b.ReportAllocs()
	ops := 0
	for i := 0; i < b.N; i++ {
		ops = generateSuite()
	}
	b.ReportMetric(float64(ops), "ops/suite")
}
