package check

import (
	"math/rand"
	"slices"
	"testing"

	"bayou/internal/core"
	"bayou/internal/history"
	"bayou/internal/spec"
)

// randomHistory builds a small well-formed history with every kind of
// event the witness distinguishes (TOB-cast, never-cast reads, lease reads,
// pending) and random traces that share a random committed prefix, so
// vis often has cycles.
func randomHistory(t *testing.T, rng *rand.Rand) *history.History {
	n := 2 + rng.Intn(10)
	lastRet := map[core.SessionID]int64{}
	closed := map[core.SessionID]bool{}
	var events []*history.Event
	var cast []*history.Event
	for i := 0; i < n; i++ {
		s := core.SessionID(rng.Intn(3))
		if closed[s] {
			continue
		}
		e := &history.Event{
			Session:   s,
			Invoke:    lastRet[s] + 1 + rng.Int63n(5),
			Dot:       core.Dot{Replica: core.ReplicaID(rng.Intn(3)), EventNo: int64(i + 1)},
			Timestamp: rng.Int63n(8),
			TOBNo:     -1,
		}
		e.Return = e.Invoke + rng.Int63n(6)
		lastRet[s] = e.Return
		if rng.Intn(8) == 0 {
			e.Pending, closed[s] = true, true
		}
		switch rng.Intn(4) {
		case 0:
			e.Op = spec.ListRead()
		case 1:
			e.Op, e.LeaseRead = spec.ListRead(), true
		default:
			e.Op, e.TOBCast = spec.Append("x"), true
			cast = append(cast, e)
		}
		events = append(events, e)
	}
	var commits []core.Dot
	for _, i := range rng.Perm(len(cast))[:rng.Intn(len(cast)+1)] {
		cast[i].TOBNo = int64(len(commits) + 1)
		commits = append(commits, cast[i].Dot)
	}
	for _, e := range events {
		if e.LeaseRead {
			e.LeaseNo = rng.Int63n(int64(len(commits) + 1))
		}
		e.TraceBase = rng.Intn(len(commits) + 1)
		for _, i := range rng.Perm(len(cast))[:rng.Intn(len(cast)+1)] {
			e.Trace = append(e.Trace, cast[i].Dot)
		}
	}
	h, err := history.New(events, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Commits = commits
	return h
}

// TestHBGraphMatchesRelation checks the sparse hb graph against the dense
// relation so ∪ vis built pair by pair from SessionOrder and Vis: the
// graph finds a cycle exactly when the relation has one, and every cycle
// it reports is one of the relation's transitive closure. It also checks
// the witness's trace index against the materialized traces.
func TestHBGraphMatchesRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cycles := 0
	for iter := 0; iter < 3000; iter++ {
		h := randomHistory(t, rng)
		w := NewWitness(h)
		n := len(h.Events)
		for _, e := range h.Events {
			full := h.Trace(e)
			for _, x := range h.Events {
				if got, want := w.tracePos(e, x.Dot), slices.Index(full, x.Dot); got != want {
					t.Fatalf("iter %d: tracePos(%s, %s) = %d, trace %v", iter, e.Dot, x.Dot, got, full)
				}
			}
		}
		hb := history.FromLess(n, func(a, b history.EventID) bool {
			x, y := h.Events[a], h.Events[b]
			return h.SessionOrder(x, y) || w.Vis(x, y)
		})
		acyclic, _ := hb.Acyclic()
		cycle := w.hbGraph().cycle()
		if acyclic != (cycle == nil) {
			t.Fatalf("iter %d: relation acyclic=%v, graph cycle %v", iter, acyclic, cycle)
		}
		if cycle == nil {
			continue
		}
		cycles++
		closure := hb.TransitiveClosure()
		for i, a := range cycle {
			if b := cycle[(i+1)%len(cycle)]; !closure.Has(a, b) {
				t.Fatalf("iter %d: reported cycle %v steps %d→%d outside hb⁺", iter, cycle, a, b)
			}
		}
	}
	if cycles == 0 {
		t.Fatal("no history had a cycle; the generator is too tame")
	}
}
