package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean not 0")
	}
	m.Add(2)
	m.Add(4)
	if m.Value() != 3 || m.N() != 2 || m.Sum() != 6 {
		t.Fatalf("mean = %v n=%d sum=%v", m.Value(), m.N(), m.Sum())
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean(2,8) = %v", g)
	}
	if g := GeoMean([]float64{5}); math.Abs(g-5) > 1e-12 {
		t.Fatalf("GeoMean(5) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v", g)
	}
	// Non-positive values are ignored.
	if g := GeoMean([]float64{0, -1, 4}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean with junk = %v", g)
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	prop := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-6 && v < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		min, max := xs[0], xs[0]
		for _, v := range xs {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return g >= min*(1-1e-9) && g <= max*(1+1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if c := Correlation(xs, []float64{2, 4, 6, 8}); math.Abs(c-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", c)
	}
	if c := Correlation(xs, []float64{8, 6, 4, 2}); math.Abs(c+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", c)
	}
	if c := Correlation(xs, []float64{5, 5, 5, 5}); c != 0 {
		t.Fatalf("constant series correlation = %v", c)
	}
	if c := Correlation([]float64{1}, []float64{2}); c != 0 {
		t.Fatalf("single-pair correlation = %v", c)
	}
}

func TestMeanAbsRelError(t *testing.T) {
	got := MeanAbsRelError([]float64{11, 18}, []float64{10, 20})
	want := (0.1 + 0.1) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MARE = %v, want %v", got, want)
	}
	if MeanAbsRelError([]float64{1}, []float64{0}) != 0 {
		t.Fatal("zero reference not skipped")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Fatal("Ratio(6,3)")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio(1,0) should be 0")
	}
}
