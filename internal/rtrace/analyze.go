package rtrace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"redotheory/internal/obs"
)

// CriticalPath walks the span tree from the root picking, at every
// level, the child the parent had to wait for — the one that finished
// last. For the parallel engine that is the chain recover → replay →
// slowest component: shortening any span on the path shortens the
// recovery, which is exactly the profiler's definition of critical.
func CriticalPath(root *Node) []*Node {
	if root == nil {
		return nil
	}
	path := []*Node{root}
	n := root
	for len(n.Children) > 0 {
		var last *Node
		for _, c := range n.Children {
			if last == nil || c.End > last.End {
				last = c
			}
		}
		path = append(path, last)
		n = last
	}
	return path
}

// stragglers returns the recovery's component spans sorted
// slowest-first — the parallel replay straggler table.
func stragglers(rec *Recovery) []*Node {
	var comps []*Node
	rec.Walk(func(n *Node, _ int) {
		if n.Phase == obs.PhaseComponent {
			comps = append(comps, n)
		}
	})
	sort.SliceStable(comps, func(i, j int) bool { return comps[i].Dur() > comps[j].Dur() })
	return comps
}

// SlowestSpans returns every identified span of every recovery, sorted
// slowest-first — the trace-side input of redostats -top.
func SlowestSpans(recs []*Recovery) []*Node {
	var all []*Node
	for _, r := range recs {
		r.Walk(func(n *Node, _ int) { all = append(all, n) })
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Dur() > all[j].Dur() })
	return all
}

// RenderSummary writes one line per recovery in the trace.
func RenderSummary(w io.Writer, recs []*Recovery) {
	for _, r := range recs {
		id := r.TraceID
		if id == "" {
			id = "(untraced)"
		}
		detail := r.Detail
		if detail == "" {
			detail = "-"
		}
		fmt.Fprintf(w, "%-10s %-28s spans=%-4d events=%-5d wall=%s\n",
			id, detail, r.Spans, r.Events, time.Duration(r.End()-r.Begin()))
	}
}

// RenderCriticalPath writes the path as an indented chain with each
// span's share of the root's wall clock.
func RenderCriticalPath(w io.Writer, path []*Node) {
	if len(path) == 0 {
		fmt.Fprintln(w, "critical path: (no spans)")
		return
	}
	total := path[0].Dur()
	fmt.Fprintf(w, "critical path (%s total):\n", total)
	for i, n := range path {
		share := 100.0
		if total > 0 {
			share = 100 * float64(n.Dur()) / float64(total)
		}
		fmt.Fprintf(w, "  %s%-24s %10s  %5.1f%%\n",
			strings.Repeat("  ", i), n.Label(), n.Dur(), share)
	}
}

// RenderStragglers writes the top-K component table: label, worker,
// records, write width, duration, and share of the replay phase.
func RenderStragglers(w io.Writer, rec *Recovery, k int) {
	comps := stragglers(rec)
	if len(comps) == 0 {
		fmt.Fprintln(w, "stragglers: (no component spans — sequential recovery?)")
		return
	}
	var replay time.Duration
	rec.Walk(func(n *Node, _ int) {
		if n.Phase == obs.PhaseReplay && n.Dur() > replay {
			replay = n.Dur()
		}
	})
	if k <= 0 || k > len(comps) {
		k = len(comps)
	}
	fmt.Fprintf(w, "stragglers (top %d of %d components):\n", k, len(comps))
	fmt.Fprintf(w, "  %-10s %6s %8s %8s %12s %9s\n", "component", "worker", "records", "writes", "dur", "of-replay")
	for _, n := range comps[:k] {
		share := 0.0
		if replay > 0 {
			share = 100 * float64(n.Dur()) / float64(replay)
		}
		fmt.Fprintf(w, "  %-10s %6d %8d %8d %12s %8.1f%%\n",
			n.Comp, n.Worker, n.Size, n.Writes, n.Dur(), share)
	}
}

// timelineRows bounds how many spans an ASCII timeline renders.
const timelineRows = 32

// RenderTimeline writes an ASCII Gantt chart of the recovery: one row
// per span in causal (depth-first) order, bars scaled to the recovery's
// wall clock. Rows beyond the bound are dropped slowest-last, with a
// note of how many were omitted — no silent truncation.
func RenderTimeline(w io.Writer, rec *Recovery, width int) {
	if width < 16 {
		width = 48
	}
	begin, end := rec.Begin(), rec.End()
	if end <= begin || len(rec.Roots) == 0 {
		fmt.Fprintln(w, "timeline: (no timed spans)")
		return
	}
	type row struct {
		n     *Node
		depth int
	}
	var rows []row
	rec.Walk(func(n *Node, depth int) { rows = append(rows, row{n, depth}) })
	omitted := 0
	if len(rows) > timelineRows {
		// Keep the slowest spans but preserve causal order among them.
		kept := append([]row(nil), rows...)
		sort.SliceStable(kept, func(i, j int) bool { return kept[i].n.Dur() > kept[j].n.Dur() })
		keep := make(map[*Node]bool, timelineRows)
		for _, r := range kept[:timelineRows] {
			keep[r.n] = true
		}
		filtered := rows[:0]
		for _, r := range rows {
			if keep[r.n] {
				filtered = append(filtered, r)
			}
		}
		omitted = len(rows) - len(filtered)
		rows = filtered
	}
	span := float64(end - begin)
	fmt.Fprintf(w, "timeline (%s wall clock, %d columns):\n", time.Duration(end-begin), width)
	for _, r := range rows {
		lo := int(float64(r.n.Begin-begin) / span * float64(width))
		hi := int(float64(r.n.End-begin) / span * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		if lo >= width {
			lo = width - 1
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("=", hi-lo) + strings.Repeat(" ", width-hi)
		label := strings.Repeat(" ", r.depth) + r.n.Label()
		if len(label) > 22 {
			label = label[:22]
		}
		fmt.Fprintf(w, "  %-22s |%s| %s\n", label, bar, r.n.Dur())
	}
	if omitted > 0 {
		fmt.Fprintf(w, "  (%d faster spans omitted)\n", omitted)
	}
}
