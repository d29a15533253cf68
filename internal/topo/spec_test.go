package topo

import "testing"

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"", Spec{}},
		{"4x4", Spec{NumGPUs: 4, GPMsPerGPU: 4}},
		{"16x8", Spec{NumGPUs: 16, GPMsPerGPU: 8}},
		{"8", Spec{NumGPUs: 8}},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"x", "4x", "x8x", "0x4", "4x0", "-2x4", "4x-4", "axb", "4X4", "4x4x4"} {
		if sp, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted as %+v", bad, sp)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, s := range []string{"4x4", "16x8", "2x2", "8"} {
		sp, err := ParseSpec(s)
		if err != nil || sp.String() != s {
			t.Fatalf("ParseSpec(%q) = %q, %v", s, sp.String(), err)
		}
	}
	if (Spec{}).String() != "" {
		t.Fatalf("zero Spec renders %q, want empty", (Spec{}).String())
	}
}

func TestSpecApply(t *testing.T) {
	base := Topology{NumGPUs: 4, GPMsPerGPU: 4, SMsPerGPM: 8, LineSize: 128, PageSize: 4096}
	got := Spec{NumGPUs: 16, GPMsPerGPU: 8}.Apply(base)
	if got.NumGPUs != 16 || got.GPMsPerGPU != 8 {
		t.Fatalf("Apply(16x8) = %+v", got)
	}
	if got.SMsPerGPM != base.SMsPerGPM || got.LineSize != base.LineSize || got.PageSize != base.PageSize {
		t.Fatalf("Apply clobbered per-module detail: %+v", got)
	}
	if partial := (Spec{NumGPUs: 8}).Apply(base); partial.NumGPUs != 8 || partial.GPMsPerGPU != 4 {
		t.Fatalf("partial Apply(8) = %+v", partial)
	}
	if same := (Spec{}).Apply(base); same != base {
		t.Fatalf("zero Apply changed topology: %+v", same)
	}
	if base.String() != "4x4" {
		t.Fatalf("Topology.String() = %q", base.String())
	}
	if base.Spec() != (Spec{NumGPUs: 4, GPMsPerGPU: 4}) {
		t.Fatalf("Topology.Spec() = %+v", base.Spec())
	}
}

// FuzzParseSpec: no -topo argument panics the parser or the checks a
// parsed spec then meets (Apply onto the default machine, Validate),
// and an accepted spec re-parses from its rendering to itself.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"", "4x4", "16x8", "8", "x8", "0x4", "4x4x4", "+2x-0", "9223372036854775807x2"} {
		f.Add(s)
	}
	base := Topology{NumGPUs: 4, GPMsPerGPU: 4, SMsPerGPM: 8, LineSize: 128, PageSize: 4096}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		_ = sp.Apply(base).Validate()
		if again, err := ParseSpec(sp.String()); err != nil || again != sp {
			t.Fatalf("ParseSpec(%q) = %+v renders %q, which re-parses to %+v, %v", s, sp, sp.String(), again, err)
		}
	})
}
