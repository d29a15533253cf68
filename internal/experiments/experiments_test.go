package experiments

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/workload"
)

// testRunner returns a Runner at a small scale for fast tests.
func testRunner() *Runner {
	r, err := NewRunner(Options{Scale: 0.1, SMsPerGPM: 4})
	if err != nil {
		panic(err)
	}
	return r
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1.0 || o.SMsPerGPM != 8 {
		t.Fatalf("defaults = %+v", o)
	}
	d := DefaultOptions()
	if d.Scale != 1.0 {
		t.Fatal("DefaultOptions scale")
	}
}

func TestVariantDefaults(t *testing.T) {
	v := Variant{}.withDefaults()
	if v.NVLinkGBs != 200 || v.L2MBPerGPU != 12 || v.DirEntries != 12*1024 || v.GranLines != 4 {
		t.Fatalf("variant defaults = %+v", v)
	}
}

func TestConfigScaling(t *testing.T) {
	r := testRunner()
	cfg := r.Config(proto.HMG, Variant{})
	if err := cfg.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	// Capacity ratios are preserved under ScaleDown: the directory
	// covers GranLines×Entries lines = 2× the L2 slice's line count,
	// exactly as in Table II (48K tracked lines vs 24K cached lines).
	dirLines := cfg.Dir.Entries * cfg.Dir.GranLines
	l2Lines := cfg.L2Slice.CapacityBytes / cfg.Topo.LineSize
	if dirLines != 2*l2Lines {
		t.Fatalf("coverage ratio: dir %d lines vs L2 %d lines, want 2x", dirLines, l2Lines)
	}
	// Bandwidths scale with the SM aggregation factor so the
	// demand-to-bandwidth ratio of the real machine is preserved
	// (testRunner models 4 SMs/GPM: aggregation 8, bandwidth factor 4).
	if cfg.Net.NVLinkGBs != 200/4 {
		t.Fatalf("NVLink = %v, want 50 (aggregation-scaled)", cfg.Net.NVLinkGBs)
	}
}

func TestRunMemoizes(t *testing.T) {
	r := testRunner()
	b, _ := workload.Get("overfeat")
	r1, err := r.Run(b, proto.HMG, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.Run(b, proto.HMG, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical runs not memoized")
	}
	// Non-hardware protocols canonicalize directory variants.
	s1, err := r.Run(b, proto.SWHier, Variant{DirEntries: 3 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Run(b, proto.SWHier, Variant{DirEntries: 6 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("software runs not canonicalized across directory variants")
	}
}

func TestSpeedupPositive(t *testing.T) {
	r := testRunner()
	b, _ := workload.Get("overfeat")
	base, err := baselineCycles(r, []workload.Params{b}, topo.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(b, proto.HMG, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if sp := base[0] / float64(res.Cycles); sp <= 0 {
		t.Fatalf("speedup = %v", sp)
	}
}

func TestTableII(t *testing.T) {
	tab := TableII(testRunner())
	if v, ok := tab.Cell("GPUs", "value"); !ok || v != 4 {
		t.Fatalf("GPUs cell = %v,%v", v, ok)
	}
	if v, _ := tab.Cell("inter-GPU BW per link (GB/s)", "value"); v != 200 {
		t.Fatalf("NVLink cell = %v", v)
	}
	if v, _ := tab.Cell("dir entries per GPM", "value"); v != 12*1024 {
		t.Fatalf("dir entries = %v, want 12K (paper units)", v)
	}
}

func TestTableIII(t *testing.T) {
	tab := TableIII(testRunner())
	if len(tab.Rows) != 20 {
		t.Fatalf("Table III rows = %d, want 20", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row.Cells[2] <= 0 {
			t.Errorf("%s: zero ops", row.Label)
		}
	}
}

func TestHardwareCostTable(t *testing.T) {
	tab := HardwareCost(testRunner())
	if v, _ := tab.Cell("bits per entry", "value"); v != 55 {
		t.Fatalf("bits per entry = %v, want 55 (paper VII-C)", v)
	}
	if v, _ := tab.Cell("sharers per entry (M+N-2)", "value"); v != 6 {
		t.Fatalf("max sharers = %v, want 6", v)
	}
}

func TestFig3Profile(t *testing.T) {
	tab, err := Fig3(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 21 { // 20 benchmarks + Avg
		t.Fatalf("Fig3 rows = %d", len(tab.Rows))
	}
	hi, _ := tab.Cell("MiniAMR", "redundant%")
	lo, _ := tab.Cell("namd2.10", "redundant%")
	if hi <= lo {
		t.Fatalf("MiniAMR redundancy %.1f not above namd2.10 %.1f", hi, lo)
	}
	avg, _ := tab.Cell("Avg", "redundant%")
	if avg < 20 || avg > 100 {
		t.Fatalf("average redundancy %.1f implausible", avg)
	}
}

func TestFig7Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep in -short mode")
	}
	tab, err := Fig7(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 { // 4 microbenches × 3 sizes
		t.Fatalf("Fig7 rows = %d", len(tab.Rows))
	}
	// The correlation footnote must report a strong positive value.
	found := false
	for _, n := range tab.Notes {
		if strings.HasPrefix(n, "correlation = ") {
			found = true
			var c float64
			if _, err := fscanNote(n, &c); err != nil {
				t.Fatalf("parsing %q: %v", n, err)
			}
			if c < 0.9 {
				t.Fatalf("calibration correlation %.3f < 0.9", c)
			}
		}
	}
	if !found {
		t.Fatal("no correlation note")
	}
}

func TestFig8SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol comparison in -short mode")
	}
	tab, err := Fig8(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 21 {
		t.Fatalf("Fig8 rows = %d", len(tab.Rows))
	}
	for _, col := range tab.Columns {
		if v, ok := tab.Cell("GeoMean", col); !ok || v <= 0 {
			t.Fatalf("geomean for %s = %v", col, v)
		}
	}
}

func TestFig9To11Profiles(t *testing.T) {
	if testing.Short() {
		t.Skip("HMG profiles in -short mode")
	}
	r := testRunner()
	f9, err := Fig9(r)
	if err != nil {
		t.Fatal(err)
	}
	f10, err := Fig10(r)
	if err != nil {
		t.Fatal(err)
	}
	f11, err := Fig11(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*struct {
		name string
		rows int
	}{{f9.Title, len(f9.Rows)}, {f10.Title, len(f10.Rows)}, {f11.Title, len(f11.Rows)}} {
		if tab.rows != 21 {
			t.Errorf("%s: %d rows", tab.name, tab.rows)
		}
	}
	// The false-sharing graph workloads must invalidate more lines per
	// store than the read-mostly ML workloads (the Fig. 9 outliers).
	mst, _ := f9.Cell("mst", "lines/store")
	overfeat, _ := f9.Cell("overfeat", "lines/store")
	if mst <= overfeat {
		t.Errorf("Fig9: mst (%.2f) not above overfeat (%.2f)", mst, overfeat)
	}
}

// fscanNote extracts the first float following "= " in a note like
// "correlation = 0.97 (...)".
func fscanNote(n string, out *float64) (int, error) {
	i := strings.Index(n, "= ")
	rest := n[i+2:]
	end := 0
	for end < len(rest) && (rest[end] == '.' || rest[end] == '-' || (rest[end] >= '0' && rest[end] <= '9')) {
		end++
	}
	v, err := strconv.ParseFloat(rest[:end], 64)
	*out = v
	return 1, err
}

func TestLocalityAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	tab, err := LocalityAblation(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	base := tab.Rows[0].Cells[0]
	both := tab.Rows[3].Cells[0]
	if both >= base {
		t.Fatalf("ablating both locality policies did not hurt: %.2f vs %.2f", both, base)
	}
}

func TestGPMScopeStudyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("scope study in -short mode")
	}
	tab, err := GPMScopeStudy(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // 3 benchmarks + geomean
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRelatedProtocolsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("related protocols in -short mode")
	}
	tab, err := RelatedProtocols(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tab.Cell("GeoMean", "CARVE"); !ok || v <= 0 {
		t.Fatalf("CARVE geomean = %v, %v", v, ok)
	}
}

// TestExperimentDeterminism: two independent runners produce bit-equal
// results for the same benchmark and protocol — figures are exactly
// reproducible.
func TestExperimentDeterminism(t *testing.T) {
	b, _ := workload.Get("CoMD")
	r1, err := testRunner().Run(b, proto.HMG, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := testRunner().Run(b, proto.HMG, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.InterGPUBytes != r2.InterGPUBytes ||
		r1.EventsExecuted != r2.EventsExecuted || r1.InvMsgsOnWire != r2.InvMsgsOnWire {
		t.Fatalf("nondeterministic experiment: %+v vs %+v", r1, r2)
	}
}

// TestMCAStudySmall: the MCA study runs and GPU-VI lands at or below the
// ack-free NHCC.
func TestMCAStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("MCA study in -short mode")
	}
	tab, err := MCAStudy(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	vi, _ := tab.Cell("GeoMean", "GPU-VI-MCA")
	nhcc, _ := tab.Cell("GeoMean", legend(proto.NHCC))
	if vi <= 0 || nhcc <= 0 {
		t.Fatalf("geomeans: vi=%v nhcc=%v", vi, nhcc)
	}
	if vi > nhcc*1.02 {
		t.Fatalf("multi-copy-atomic GPU-VI (%.2f) outperformed ack-free NHCC (%.2f)", vi, nhcc)
	}
}

// TestTrackValuesInert asserts that value tracking, which the checker,
// the litmus oracle and hmgsim -check turn on, never changes timing:
// the machine they verify is the machine the figures time. Results
// must be deep-equal with TrackValues on and off on the runner's
// machine. The slice covers home atomics on lines absent from the home
// slice, which once installed them only under tracking; it needs scale
// 0.25, since at 0.1 those runs agreed even then.
func TestTrackValuesInert(t *testing.T) {
	if raceEnabled {
		t.Skip("18 scale-0.25 run pairs; no concurrency to race")
	}
	const scale = 0.25
	r, err := NewRunner(Options{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []proto.Kind{proto.SWHier, proto.HMG, proto.Ideal} {
		for _, wb := range []bool{false, true} {
			for _, name := range []string{"mst", "cuSolver", "namd2.10"} {
				t.Run(fmt.Sprintf("%v/wb=%v/%s", k, wb, name), func(t *testing.T) {
					t.Parallel()
					p, err := workload.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					run := func(track bool) *gsim.Results {
						cfg := r.Config(k, Variant{WriteBack: wb})
						cfg.TrackValues = track
						sys, err := gsim.New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						res, err := sys.Run(p.Generate(cfg.Topo, scale))
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					off, on := run(false), run(true)
					if !reflect.DeepEqual(off, on) {
						t.Fatalf("value tracking changed the run: %d cycles off, %d on", off.Cycles, on.Cycles)
					}
				})
			}
		}
	}
}
