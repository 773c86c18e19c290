package check

import (
	"sort"

	"bayou/internal/core"
	"bayou/internal/history"
)

// hbGraph is so ∪ vis as a sparse graph whose cycles are exactly those of
// the relation. Most of the relation's pairs come in families — an event
// sees the whole committed prefix its trace starts with, a never-cast read
// is visible to every later request, a session's event follows every
// earlier one — so each family is a chain of auxiliary nodes: a member
// enters the chain at its own rank, the chain runs forward, and each node
// leads to the events the family sends there. Nodes 0..n-1 are the events;
// a path between two events exists iff the relation's transitive closure
// holds the pair, so the graph has a cycle through an event iff the
// relation does, in O(n log n + Σ|trace suffix|) nodes and edges instead
// of n².
type hbGraph struct {
	n     int        // events; nodes ≥ n are auxiliary
	edges [][2]int32 // (from, to)
	nodes int
}

func (g *hbGraph) edge(from, to int) { g.edges = append(g.edges, [2]int32{int32(from), int32(to)}) }

// chain allocates k auxiliary nodes linked first to last and returns the
// first one's number.
func (g *hbGraph) chain(k int) int {
	first := g.nodes
	g.nodes += k
	for i := first; i+1 < g.nodes; i++ {
		g.edge(i, i+1)
	}
	return first
}

// hbGraph builds so ∪ vis for the witness (Vis and SessionOrder, family by
// family).
func (w *Witness) hbGraph() *hbGraph {
	h := w.H
	n := len(h.Events)
	g := &hbGraph{n: n, nodes: n}

	// so: a session's events in invoke order have increasing returns
	// (sessions are sequential), so the events that returned before b was
	// invoked are a prefix of the session; that prefix reaches b through
	// the session's chain.
	sessions := map[core.SessionID][]*history.Event{}
	for _, e := range h.Events {
		sessions[e.Session] = append(sessions[e.Session], e)
	}
	for _, evs := range sessions {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Invoke < evs[j].Invoke })
		c := g.chain(len(evs))
		for j, b := range evs {
			if !b.Pending {
				g.edge(int(b.ID), c+j)
			}
			i := j - 1
			for i >= 0 && !h.SessionOrder(evs[i], b) {
				i--
			}
			if i >= 0 {
				g.edge(c+i, int(b.ID))
			}
		}
	}

	// vis from TOB-cast events: a is visible to b iff a is in exec(b). The
	// committed prefix is a chain in commit order; b hangs off the node of
	// its TraceBase. An event inside its own prefix (never, for a recorded
	// run) is wired around itself, since vis is irreflexive.
	castVis := func(a *history.Event) bool { return a.TOBCast && !a.LeaseRead }
	if k := len(h.Commits); k > 0 {
		c := g.chain(k)
		for i, d := range h.Commits {
			if a := h.ByDot(d); a != nil && castVis(a) {
				g.edge(int(a.ID), c+i)
			}
		}
		for _, b := range h.Events {
			base := b.TraceBase
			if base == 0 {
				continue
			}
			if p := w.commitPos[b.Dot]; p > 0 && p <= base {
				for _, d := range h.Commits[p:base] {
					if a := h.ByDot(d); a != nil && castVis(a) {
						g.edge(int(a.ID), int(b.ID))
					}
				}
				base = p - 1
			}
			if base > 0 {
				g.edge(c+base-1, int(b.ID))
			}
		}
	}
	for _, b := range h.Events {
		for _, d := range b.Trace {
			if a := h.ByDot(d); a != nil && a != b && castVis(a) {
				g.edge(int(a.ID), int(b.ID))
			}
		}
	}

	// vis from never-cast reads (request order) and lease reads (ArLess,
	// which orders a lease read before later never-cast events by request
	// order, before later anchored events by commit axis, and before every
	// undelivered cast event): one chain per order, each event entering
	// every chain it is visible along at the first position after itself.
	neverCast := func(e *history.Event) bool { return !e.TOBCast && !e.LeaseRead }
	var all, plain, anchors, pending []*history.Event
	for _, e := range h.Events {
		all = append(all, e)
		switch {
		case neverCast(e):
			plain = append(plain, e)
		case anchored(e):
			anchors = append(anchors, e)
		default:
			pending = append(pending, e)
		}
	}
	anchorLess := func(a, b *history.Event) bool {
		if pa, pb := arPos(a), arPos(b); pa != pb {
			return pa < pb
		}
		return history.ReqLess(a, b)
	}
	// ordered chains evs (sorted by less) and returns, for an event x, the
	// node to enter to reach every member y with less(x, y).
	ordered := func(evs []*history.Event, less func(a, b *history.Event) bool) func(x *history.Event) int {
		sort.Slice(evs, func(i, j int) bool { return less(evs[i], evs[j]) })
		c := g.chain(len(evs))
		for i, e := range evs {
			g.edge(c+i, int(e.ID))
		}
		return func(x *history.Event) int {
			i := sort.Search(len(evs), func(i int) bool { return less(x, evs[i]) })
			if i == len(evs) {
				return -1
			}
			return c + i
		}
	}
	enter := func(x *history.Event, node int) {
		if node >= 0 {
			g.edge(int(x.ID), node)
		}
	}
	reqAll := ordered(all, history.ReqLess)
	reqPlain := ordered(plain, history.ReqLess)
	arAnchors := ordered(anchors, anchorLess)
	undelivered := -1
	if len(pending) > 0 {
		undelivered = g.chain(1)
		for _, e := range pending {
			g.edge(undelivered, int(e.ID))
		}
	}
	for _, a := range h.Events {
		switch {
		case a.LeaseRead:
			enter(a, reqPlain(a))
			enter(a, arAnchors(a))
			enter(a, undelivered)
		case neverCast(a):
			enter(a, reqAll(a))
		}
	}
	return g
}

// cycle returns one cycle of the graph as the events on it, in path order,
// or nil when the graph is acyclic.
func (g *hbGraph) cycle() []history.EventID {
	start := make([]int32, g.nodes+1)
	for _, e := range g.edges {
		start[e[0]+1]++
	}
	for i := 1; i <= g.nodes; i++ {
		start[i] += start[i-1]
	}
	adj := make([]int32, len(g.edges))
	fill := append([]int32(nil), start[:g.nodes]...)
	for _, e := range g.edges {
		adj[fill[e[0]]] = e[1]
		fill[e[0]]++
	}

	const (
		white = iota
		gray
		black
	)
	color := make([]byte, g.nodes)
	parent := make([]int32, g.nodes)
	next := make([]int32, g.nodes) // per node: its next unexplored edge
	copy(next, start[:g.nodes])
	for root := 0; root < g.nodes; root++ {
		if color[root] != white {
			continue
		}
		color[root] = gray
		parent[root] = -1
		for u := int32(root); u >= 0; {
			if next[u] == start[u+1] {
				color[u] = black
				u = parent[u]
				continue
			}
			v := adj[next[u]]
			next[u]++
			switch color[v] {
			case white:
				color[v], parent[v] = gray, u
				u = v
			case gray:
				var out []history.EventID
				for x := u; ; x = parent[x] {
					if int(x) < g.n {
						out = append(out, history.EventID(x))
					}
					if x == v {
						break
					}
				}
				for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
					out[i], out[j] = out[j], out[i]
				}
				return out
			}
		}
	}
	return nil
}
