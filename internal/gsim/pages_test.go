package gsim

import (
	"bytes"
	"strings"
	"testing"

	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// TestRunRejectsPagesBeyondLimit checks that a decoded trace naming a
// page at or beyond topo.MaxPages — in an op or a placement hint — is
// an error from Run that names the op or hint and the page, not a
// panic or a page table sized by the address.
func TestRunRejectsPagesBeyondLimit(t *testing.T) {
	decode := func(tr *trace.Trace) *trace.Trace {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		out, err := trace.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	far := warpsTrace(
		[]trace.Op{{Kind: trace.Load, Addr: 0}},
		[]trace.Op{{Kind: trace.Load, Addr: 64}, {Kind: trace.Store, Addr: 1 << 62, Val: 1}},
	)
	hinted := warpsTrace([]trace.Op{{Kind: trace.Load, Addr: 0}})
	hinted.Placement = []trace.PlacementHint{{Page: 0, GPM: 1}, {Page: topo.MaxPages, GPM: 2}}
	for _, c := range []struct {
		tr   *trace.Trace
		want []string
	}{
		// tinyConfig pages are 4 KiB: 1<<62 is on page 1<<50.
		{far, []string{"k0 c1 w0 op1", "page 1125899906842624", "16777216-page limit"}},
		{hinted, []string{"placement hint 1", "page 16777216", "16777216-page limit"}},
	} {
		s, err := New(tinyConfig(proto.HMG))
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run(decode(c.tr))
		if err == nil {
			t.Fatalf("%v: out-of-range trace ran", c.want)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error %q does not mention %q", err, w)
			}
		}
		if s.Pages.Pages() != 0 {
			t.Errorf("rejected trace placed %d pages", s.Pages.Pages())
		}
	}
}
