// Rendering the executable table back into documentation, so the
// states × events table in DESIGN.md is generated from the same rules
// DirCtrl executes and the enumerator certifies, and cannot drift from
// them.

package spec

import (
	"fmt"
	"strings"

	"hmg/internal/proto"
)

// RenderMarkdown renders one table instantiation as a GitHub markdown
// table, one row per guarded rule in rule order.
func RenderMarkdown(t proto.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| State | Event | Guard | Next | Sharer set | Invalidations |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|\n")
	for _, r := range t.Rules {
		guard := "always"
		if r.Guard != proto.Always {
			guard = r.Guard.String()
		}
		fmt.Fprintf(&b, "| %v | %v | %s | %v | %s | %s |\n",
			r.State, r.Event, guard, r.Next, r.Update, r.Inv)
	}
	return b.String()
}

// RenderDoc renders the full DESIGN.md fragment: both instantiations
// with their framing prose. DESIGN.md embeds this output verbatim
// between the hmgspec:tablei markers; the spec package's DESIGN-sync
// test fails when the embedded copy differs from this function's
// output (regenerate with `go run ./cmd/hmgspec -render`).
func RenderDoc() string {
	var b strings.Builder
	nhcc, hmg := proto.NHCCTable(), proto.HMGTable()
	fmt.Fprintf(&b, "**%s (flat).** Requesters are GPMs named by global id; invalidations\n", nhcc.Name)
	fmt.Fprintf(&b, "terminate at caches, never at another directory.\n\n")
	b.WriteString(RenderMarkdown(nhcc))
	fmt.Fprintf(&b, "\n**%s (hierarchical).** The same rows plus the `Invalidation` column,\n", hmg.Name)
	fmt.Fprintf(&b, "used unchanged at both home levels. At the system home the sharer\n")
	fmt.Fprintf(&b, "space mixes local GPM bits with whole-GPU bits; at a GPU home it is\n")
	fmt.Fprintf(&b, "local GPM bits only, and `Invalidation` is how a system-home V→I\n")
	fmt.Fprintf(&b, "reaches the GPM sharers hiding behind a GPU bit.\n\n")
	b.WriteString(RenderMarkdown(hmg))
	return b.String()
}
