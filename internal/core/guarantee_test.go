package core

import (
	"testing"

	"bayou/internal/spec"
)

func TestGuaranteeMaskAndString(t *testing.T) {
	g := ReadYourWrites | MonotonicReads
	if !g.Has(ReadYourWrites) || !g.Has(MonotonicReads) || g.Has(MonotonicWrites) {
		t.Fatalf("mask semantics broken: %v", g)
	}
	if got := g.String(); got != "RYW|MR" {
		t.Errorf("String() = %q", got)
	}
	if Causal.String() != "causal" || Guarantee(0).String() != "none" {
		t.Errorf("bundle names: %q, %q", Causal.String(), Guarantee(0).String())
	}
	if !Causal.Has(WritesFollowReads) {
		t.Error("Causal must include all four guarantees")
	}
}

func TestVecAddMergeCompact(t *testing.T) {
	var v Vec
	if !v.Empty() {
		t.Fatal("zero Vec must be empty")
	}
	d1 := Dot{Replica: 0, EventNo: 1}
	d2 := Dot{Replica: 1, EventNo: 1}
	v.Add(d1, 10)
	v.Add(d1, 10) // idempotent
	v.Add(d2, 7)
	if len(v.Frontier) != 2 || v.MaxTS != 10 {
		t.Fatalf("frontier %v, maxTS %d", v.Frontier, v.MaxTS)
	}

	var o Vec
	o.Add(d2, 12)
	o.CommitLen = 3
	v.Merge(o)
	if len(v.Frontier) != 2 || v.CommitLen != 3 || v.MaxTS != 12 {
		t.Fatalf("after merge: %+v", v)
	}

	clone := v.Clone()
	clone.Frontier[0] = Dot{Replica: 9, EventNo: 9}
	if v.Frontier[0] == clone.Frontier[0] {
		t.Error("Clone must not share the frontier")
	}

	// d1 commits at position 5: it collapses into the watermark.
	v.Compact(func(d Dot) (int64, bool) {
		if d == d1 {
			return 5, true
		}
		return 0, false
	})
	if v.CommitLen != 5 || len(v.Frontier) != 1 || v.Frontier[0] != d2 {
		t.Fatalf("after compact: %+v", v)
	}
}

// TestCoverageQueries drives a replica through the states the three
// coverage predicates distinguish.
func TestCoverageQueries(t *testing.T) {
	p := NewReplica(0, NoCircularCausality, func() int64 { return 0 })

	remote := Req{Timestamp: 100, Dot: Dot{Replica: 1, EventNo: 1}, Op: spec.Inc("c", 1)}
	var v Vec
	v.Add(remote.Dot, remote.Timestamp)

	// Unknown dot: nothing covers.
	if p.CoversRead(v) || p.CoversWrite(v) || p.CoversCommitted(v) {
		t.Fatal("unknown dot must not be covered")
	}

	// RB-delivered but not yet executed: no read coverage; no write
	// coverage either (foreign tentative gossip orders nothing).
	if _, err := p.RBDeliver(remote); err != nil {
		t.Fatal(err)
	}
	if p.CoversRead(v) {
		t.Error("unexecuted dot must not read-cover")
	}
	if p.CoversWrite(v) {
		t.Error("foreign tentative dot must not write-cover")
	}

	// Executed: read coverage holds, commit coverage still does not.
	if _, err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if !p.CoversRead(v) {
		t.Error("executed dot must read-cover")
	}
	if p.CoversCommitted(v) || p.CoversWrite(v) {
		t.Error("uncommitted foreign dot must not commit/write-cover")
	}

	// Committed: everything covers; the watermark applies too.
	if _, err := p.TOBDeliver(remote); err != nil {
		t.Fatal(err)
	}
	if !p.CoversCommitted(v) || !p.CoversWrite(v) || !p.CoversRead(v) {
		t.Error("committed dot must cover everywhere")
	}
	v.Compact(func(Dot) (int64, bool) { return 1, true })
	if v.CommitLen != 1 || len(v.Frontier) != 0 {
		t.Fatalf("compacted vec: %+v", v)
	}
	if !p.CoversCommitted(v) || !p.CoversRead(v) {
		t.Error("watermark 1 must be covered by one commit")
	}
	v.CommitLen = 2
	if p.CoversCommitted(v) || p.CoversRead(v) || p.CoversWrite(v) {
		t.Error("watermark beyond the committed prefix must not cover")
	}
}

// TestCoversWriteDemandsCommit: even the replica's own tentative write does
// not write-cover (TOB promises no per-proposer FIFO under faults, so only
// a committed predecessor orders a fresh proposal), and a fenced clock
// timestamps after the vector.
func TestCoversWriteDemandsCommit(t *testing.T) {
	clock := int64(0)
	p := NewReplica(0, NoCircularCausality, func() int64 { clock++; return clock })
	eff, err := p.Invoke(spec.Inc("c", 1), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.RBCast) != 1 {
		t.Fatalf("weak update must RB-cast, got %d", len(eff.RBCast))
	}
	local := eff.RBCast[0]
	var v Vec
	v.Add(local.Dot, local.Timestamp)
	if p.CoversWrite(v) || p.CoversCommitted(v) {
		t.Error("a tentative write must not write/commit-cover")
	}
	for _, req := range eff.TOBCast {
		if _, err := p.TOBDeliver(req); err != nil {
			t.Fatal(err)
		}
	}
	if !p.CoversWrite(v) {
		t.Error("a committed write must write-cover")
	}

	var eff2 Effects
	if _, _, err := p.Accept(Invocation{Session: 0, Op: spec.Inc("c", 1), Level: Weak, Fence: 500}, nil, &eff2); err != nil {
		t.Fatal(err)
	}
	if ts := eff2.RBCast[0].Timestamp; ts <= 500 {
		t.Errorf("fenced clock minted %d, want > 500", ts)
	}
}
