package topo

import (
	"testing"
	"testing/quick"
)

func paperTopo() Topology {
	return Topology{NumGPUs: 4, GPMsPerGPU: 4, SMsPerGPM: 32, LineSize: 128, PageSize: 2 << 20}
}

func TestValidate(t *testing.T) {
	if err := paperTopo().Validate(); err != nil {
		t.Fatalf("paper topology invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Topology)
	}{
		{"zero GPUs", func(tp *Topology) { tp.NumGPUs = 0 }},
		{"negative GPMs", func(tp *Topology) { tp.GPMsPerGPU = -1 }},
		{"zero SMs", func(tp *Topology) { tp.SMsPerGPM = 0 }},
		{"non-pow2 line", func(tp *Topology) { tp.LineSize = 96 }},
		{"zero line", func(tp *Topology) { tp.LineSize = 0 }},
		{"non-pow2 page", func(tp *Topology) { tp.PageSize = 3000 }},
		{"page < line", func(tp *Topology) { tp.PageSize = 64 }},
		// -topo specs whose products overflow int: the GPM count wraps
		// to 0, or past MaxInt, and the SM count overflows after it.
		{"4294967296x4294967296 GPMs wrap to 0", func(tp *Topology) { *tp = Spec{NumGPUs: 1 << 32, GPMsPerGPU: 1 << 32}.Apply(*tp) }},
		{"3037000500x3037000500 GPMs overflow", func(tp *Topology) { *tp = Spec{NumGPUs: 3037000500, GPMsPerGPU: 3037000500}.Apply(*tp) }},
		{"65536x65536 SMs overflow", func(tp *Topology) {
			*tp = Spec{NumGPUs: 65536, GPMsPerGPU: 65536}.Apply(*tp)
			tp.SMsPerGPM = 1 << 31
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tp := paperTopo()
			c.mut(&tp)
			if tp.Validate() == nil {
				t.Errorf("Validate accepted %+v", tp)
			}
		})
	}
}

func TestCounts(t *testing.T) {
	tp := paperTopo()
	if got := tp.TotalGPMs(); got != 16 {
		t.Errorf("TotalGPMs = %d, want 16", got)
	}
	if got := tp.TotalSMs(); got != 512 {
		t.Errorf("TotalSMs = %d, want 512 (Table II)", got)
	}
}

func TestIDComposition(t *testing.T) {
	tp := paperTopo()
	for gpu := GPUID(0); gpu < 4; gpu++ {
		for local := 0; local < 4; local++ {
			g := tp.GPM(gpu, local)
			if tp.GPUOf(g) != gpu {
				t.Fatalf("GPUOf(GPM(%d,%d)) = %d", gpu, local, tp.GPUOf(g))
			}
			if tp.LocalOf(g) != local {
				t.Fatalf("LocalOf(GPM(%d,%d)) = %d", gpu, local, tp.LocalOf(g))
			}
			for s := 0; s < tp.SMsPerGPM; s++ {
				sm := tp.SM(g, s)
				if tp.GPMOfSM(sm) != g {
					t.Fatalf("GPMOfSM(SM(%d,%d)) = %d, want %d", g, s, tp.GPMOfSM(sm), g)
				}
			}
		}
	}
	if !tp.SameGPU(tp.GPM(2, 0), tp.GPM(2, 3)) {
		t.Error("SameGPU false for modules of GPU 2")
	}
	if tp.SameGPU(tp.GPM(1, 3), tp.GPM(2, 0)) {
		t.Error("SameGPU true across GPUs")
	}
}

func TestAddressMath(t *testing.T) {
	tp := paperTopo()
	a := Addr(5*2<<20 + 777)
	l := tp.LineOf(a)
	if base := tp.LineAddr(l); base > a || a-base >= Addr(tp.LineSize) {
		t.Errorf("LineAddr(LineOf(%d)) = %d", a, base)
	}
	if tp.PageOf(a) != 5 {
		t.Errorf("PageOf = %d, want 5", tp.PageOf(a))
	}
}

// Property: line/page math is consistent for arbitrary addresses.
func TestAddressMathProperty(t *testing.T) {
	tp := paperTopo()
	prop := func(a uint64) bool {
		addr := Addr(a % (1 << 40))
		l := tp.LineOf(addr)
		return tp.PageOf(addr) == tp.PageOf(tp.LineAddr(l)) &&
			tp.LineOf(tp.LineAddr(l)) == l
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGPUHomeLocalStableAndSpread(t *testing.T) {
	tp := paperTopo()
	counts := make([]int, tp.GPMsPerGPU)
	for l := Line(0); l < 4096; l++ {
		h := tp.GPUHomeLocal(l)
		if h < 0 || h >= tp.GPMsPerGPU {
			t.Fatalf("GPUHomeLocal out of range: %d", h)
		}
		if tp.GPUHomeLocal(l) != h {
			t.Fatalf("GPUHomeLocal not stable for line %d", l)
		}
		counts[h]++
	}
	for i, c := range counts {
		if c < 4096/tp.GPMsPerGPU/2 {
			t.Errorf("home slot %d badly underloaded: %d of 4096", i, c)
		}
	}
	// Same hash in every GPU: GPUHome differs only by GPU offset.
	for l := Line(0); l < 64; l++ {
		for gpu := GPUID(0); gpu < 4; gpu++ {
			want := tp.GPM(gpu, tp.GPUHomeLocal(l))
			if got := tp.GPUHome(gpu, l); got != want {
				t.Fatalf("GPUHome(%d, %d) = %d, want %d", gpu, l, got, want)
			}
		}
	}
}

func TestPageMapFirstTouch(t *testing.T) {
	tp := paperTopo()
	m := NewPageMap(tp)
	a := Addr(123456)
	o := m.Touch(a, 7)
	if o != 7 {
		t.Fatalf("first touch owner = %d, want 7", o)
	}
	// Subsequent touches by others do not move the page.
	if o := m.Touch(a+64, 3); o != 7 {
		t.Fatalf("second touch moved page to %d", o)
	}
	if got, ok := m.Owner(a); !ok || got != 7 {
		t.Fatalf("Owner = %d,%v", got, ok)
	}
	if m.Pages() != 1 {
		t.Fatalf("Pages = %d, want 1", m.Pages())
	}
	if m.SysHome(tp.LineOf(a)) != 7 {
		t.Fatalf("SysHome = %d, want 7", m.SysHome(tp.LineOf(a)))
	}
}

func TestPageMapGPUHome(t *testing.T) {
	tp := paperTopo()
	m := NewPageMap(tp)
	a := Addr(0)
	owner := tp.GPM(1, 2)
	m.Touch(a, owner)
	l := tp.LineOf(a)
	// Inside the owner GPU, the GPU home node is the system home itself.
	if got := m.GPUHome(1, l); got != owner {
		t.Fatalf("owner-GPU home = %d, want %d", got, owner)
	}
	// In other GPUs it is the hashed slot.
	for _, gpu := range []GPUID{0, 2, 3} {
		want := tp.GPUHome(gpu, l)
		if got := m.GPUHome(gpu, l); got != want {
			t.Fatalf("GPUHome(%d) = %d, want %d", gpu, got, want)
		}
		if tp.GPUOf(m.GPUHome(gpu, l)) != gpu {
			t.Fatalf("GPU home not inside GPU %d", gpu)
		}
	}
}

func TestSysHomeUnplacedPanics(t *testing.T) {
	m := NewPageMap(paperTopo())
	defer func() {
		if recover() == nil {
			t.Error("SysHome of unplaced line did not panic")
		}
	}()
	m.SysHome(42)
}
