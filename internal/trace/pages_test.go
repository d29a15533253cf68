package trace

import (
	"strconv"
	"strings"
	"testing"

	"hmg/internal/topo"
)

// TestValidatePages checks the page bound ValidatePages adds to
// Validate: the span it returns, the first page at the limit rejected
// for an op and for a placement hint with the offending op or hint
// named, and a page size so large that limit × pageSize overflows.
func TestValidatePages(t *testing.T) {
	const page = 4096
	const limit = topo.Page(16)
	tr := func(addrs ...topo.Addr) *Trace {
		var ops []Op
		for _, a := range addrs {
			ops = append(ops, Op{Kind: Load, Addr: a})
		}
		return &Trace{Name: "t", Kernels: []Kernel{{CTAs: []CTA{{Warps: []Warp{{}, {Ops: ops}}}}}}}
	}
	for _, c := range []struct {
		name  string
		tr    *Trace
		span  topo.Page
		error []string
	}{
		{"empty", &Trace{Name: "t"}, 0, nil},
		{"page 0", tr(0), 1, nil},
		{"highest op", tr(8, 3*page+4, page), 4, nil},
		{"last page", tr(topo.Addr(limit)*page - 4), limit, nil},
		{"op at limit", tr(0, topo.Addr(limit)*page), 0, []string{"k0 c0 w1 op1", "page 16,", "16-page limit"}},
		{"op at 1<<62", tr(1 << 62), 0, []string{"k0 c0 w1 op0", "addr 0x4000000000000000", "page 1125899906842624"}},
		{"hint", &Trace{Name: "t", Placement: []PlacementHint{{Page: 2}, {Page: limit - 1}}}, limit, nil},
		{"hint at limit", &Trace{Name: "t", Placement: []PlacementHint{{Page: 2}, {Page: limit}}}, 0, []string{"placement hint 1", "page 16 beyond"}},
		{"bad op first", tr(2, 1<<62), 0, []string{"unaligned"}},
	} {
		span, err := c.tr.ValidatePages(page, limit)
		switch {
		case c.error == nil && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.error == nil && span != c.span:
			t.Errorf("%s: span %d, want %d", c.name, span, c.span)
		case c.error != nil && err == nil:
			t.Errorf("%s: accepted with span %d", c.name, span)
		}
		for _, want := range c.error {
			if err != nil && !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", c.name, err, want)
			}
		}
		// Validate itself knows nothing of pages.
		if verr := c.tr.Validate(); (verr != nil) != strings.Contains(c.name, "bad") {
			t.Errorf("%s: Validate = %v", c.name, verr)
		}
	}
	// limit × pageSize overflows: the bound saturates, and the page of
	// the highest address still lies below the limit. Only a 64-bit int
	// holds a page size that large.
	if strconv.IntSize == 64 {
		const tib = 1 << (strconv.IntSize - 24) // 1 TiB
		span, err := tr(^topo.Addr(3)).ValidatePages(tib, topo.MaxPages)
		if err != nil || span != topo.MaxPages {
			t.Errorf("top address at a 1 TiB page: span %d, err %v; want %d, nil", span, err, topo.MaxPages)
		}
	}
	if _, err := tr(0).ValidatePages(0, limit); err == nil {
		t.Error("zero page size accepted")
	}
}
