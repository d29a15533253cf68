// Machine-shape specs: the parseable "GxM" form of a topology that
// every CLI accepts via -topo and that the experiment runner threads
// through scaled runs. A Spec names only the hierarchy shape (GPU count
// and modules per GPU); per-module detail (SMs, line and page sizes)
// stays on Topology and is inherited from whatever configuration the
// spec is applied to.

package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec is a partial machine shape: the number of GPUs and GPU modules
// per GPU. A zero field means "keep the configuration's value", so
// Spec{NumGPUs: 8} scales GPU count while preserving module count. The
// zero Spec changes nothing.
type Spec struct {
	NumGPUs    int
	GPMsPerGPU int
}

// ParseSpec parses a "GxM" topology spec — "16x8" is 16 GPUs with
// 8 GPMs each. A bare integer ("8") names the GPU count alone and
// leaves GPMs per GPU at the configuration default. The empty string
// parses to the zero Spec.
func ParseSpec(s string) (Spec, error) {
	if s == "" {
		return Spec{}, nil
	}
	gs, ms, ok := strings.Cut(s, "x")
	g, err := strconv.Atoi(gs)
	if err != nil || g <= 0 {
		return Spec{}, fmt.Errorf("topo: bad spec %q: want GPUSxGPMS like %q", s, "4x4")
	}
	if !ok {
		return Spec{NumGPUs: g}, nil
	}
	m, err := strconv.Atoi(ms)
	if err != nil || m <= 0 {
		return Spec{}, fmt.Errorf("topo: bad spec %q: want GPUSxGPMS like %q", s, "4x4")
	}
	return Spec{NumGPUs: g, GPMsPerGPU: m}, nil
}

// String renders the spec in the form ParseSpec accepts. Partial specs
// render their set half; the zero Spec renders as the empty string.
func (s Spec) String() string {
	switch {
	case s == Spec{}:
		return ""
	case s.GPMsPerGPU == 0:
		return strconv.Itoa(s.NumGPUs)
	case s.NumGPUs == 0:
		return "x" + strconv.Itoa(s.GPMsPerGPU)
	default:
		return fmt.Sprintf("%dx%d", s.NumGPUs, s.GPMsPerGPU)
	}
}

// Apply overlays the spec's set fields onto a topology and returns the
// result; zero fields inherit t's values.
func (s Spec) Apply(t Topology) Topology {
	if s.NumGPUs > 0 {
		t.NumGPUs = s.NumGPUs
	}
	if s.GPMsPerGPU > 0 {
		t.GPMsPerGPU = s.GPMsPerGPU
	}
	return t
}

// Spec returns the shape of the topology as a fully-specified Spec.
func (t Topology) Spec() Spec {
	return Spec{NumGPUs: t.NumGPUs, GPMsPerGPU: t.GPMsPerGPU}
}

// String renders the machine shape in the "GxM" spec form.
func (t Topology) String() string { return t.Spec().String() }

// SpecFlagUsage is the shared help text for the -topo flag across
// hmgsim, hmgbench, hmgcheck, and hmgperf.
const SpecFlagUsage = "machine shape as GPUSxGPMS (e.g. 4x4, 16x8); a bare GPU count keeps the default GPMs per GPU"
