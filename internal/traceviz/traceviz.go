// Package traceviz renders recorded histories as human-readable timelines in
// the spirit of Figures 1 and 2 of the paper: one lane per session, each
// invocation annotated with its level, return value, tentative/stable
// status, and final commit position.
package traceviz

import (
	"fmt"
	"sort"
	"strings"

	"bayou/internal/core"
	"bayou/internal/history"
	"bayou/internal/spec"
)

// Timeline renders the history as a chronological event table.
func Timeline(h *history.History) string {
	events := append([]*history.Event(nil), h.Events...)
	sort.Slice(events, func(i, j int) bool { return events[i].Invoke < events[j].Invoke })
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-4s %-7s %-28s %-18s %-10s %s\n",
		"t", "sess", "level", "operation", "rval", "status", "commit")
	for _, e := range events {
		status := "tentative"
		commit := "-"
		if e.Pending {
			status = "pending"
		}
		if e.TOBNo > 0 {
			commit = fmt.Sprintf("tob#%d", e.TOBNo)
		}
		rval := "∇"
		if !e.Pending {
			rval = spec.Encode(e.RVal)
			if e.Level == core.Strong {
				status = "stable"
			}
		}
		fmt.Fprintf(&b, "%-8d S%-3d %-7s %-28s %-18s %-10s %s\n",
			e.WallInvoke, e.Session, e.Level, clip(e.Op.Name(), 28), clip(rval, 18), status, commit)
	}
	return b.String()
}

// Lanes renders per-replica lanes with invocation and response markers,
// closest in spirit to the figures.
func Lanes(h *history.History) string {
	bySession := make(map[core.SessionID][]*history.Event)
	var sessions []core.SessionID
	for _, e := range h.Events {
		if _, ok := bySession[e.Session]; !ok {
			sessions = append(sessions, e.Session)
		}
		bySession[e.Session] = append(bySession[e.Session], e)
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i] < sessions[j] })
	var b strings.Builder
	for _, s := range sessions {
		evs := bySession[s]
		sort.Slice(evs, func(i, j int) bool { return evs[i].Invoke < evs[j].Invoke })
		fmt.Fprintf(&b, "S%d |", s)
		for _, e := range evs {
			rval := "∇"
			if !e.Pending {
				rval = spec.Encode(e.RVal)
			}
			fmt.Fprintf(&b, "  %s→%s", e.Op.Name(), rval)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// PerceivedOrder renders one event's perceived execution order (its exec
// trace) against the final commit order — the visual essence of temporary
// operation reordering.
func PerceivedOrder(h *history.History, d core.Dot) string {
	e := h.ByDot(d)
	if e == nil {
		return fmt.Sprintf("no event %s", d)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "event %s (%s):\n  perceived: ", d, e.Op.Name())
	for _, x := range h.Trace(e) {
		fmt.Fprintf(&b, "%s ", x)
	}
	fmt.Fprintf(&b, "\n  committed: ")
	committed := append([]*history.Event(nil), h.Events...)
	sort.Slice(committed, func(i, j int) bool { return committed[i].TOBNo < committed[j].TOBNo })
	for _, x := range committed {
		if x.TOBNo > 0 {
			fmt.Fprintf(&b, "%s ", x.Dot)
		}
	}
	b.WriteString("\n")
	return b.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
