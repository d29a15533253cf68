package experiments

import (
	"os"
	"strings"
	"testing"
)

// goldenFigures are the tables TestTablesGolden pins: the calibration
// sweep, and the sensitivity sweep, ablations and scaling study that
// share the suite-geomean rule.
var goldenFigures = []string{"7", "12", "downgrade", "writeback", "scaling", "locality"}

// TestTablesGolden prewarms goldenFigures on one small runner, renders
// them in registry order, each table followed by a newline as hmgbench
// prints it, and compares the bytes with testdata/tables.txt.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a small campaign of six figures; run without -short")
	}
	var figs []Figure
	for _, name := range goldenFigures {
		figs = append(figs, figure(t, name))
	}
	r, err := NewRunner(Options{Scale: 0.02, SMsPerGPM: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prewarm(PlanUnion(figs)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range figs {
		tab, err := f.Gen(r)
		if err != nil {
			t.Fatalf("figure %s: %v", f.Name, err)
		}
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	want, err := os.ReadFile("testdata/tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("tables differ from testdata/tables.txt at line %d:\n got: %q\nwant: %q\nfull output:\n%s", i+1, g, w, got)
		}
	}
}
