package core

import (
	"testing"

	"bayou/internal/spec"
)

// acceptFixture is a replica with one committed, executed write (c = 1, at
// commit position 1) and one executed but uncommitted weak write of its
// own, tent (c = 11 tentatively).
func acceptFixture(t *testing.T) (p *Replica, tent Dot) {
	t.Helper()
	clock := int64(0)
	p = NewReplica(0, NoCircularCausality, func() int64 { clock++; return clock })
	eff, err := p.Invoke(spec.Inc("c", 1), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TOBDeliver(eff.TOBCast[0]); err != nil {
		t.Fatal(err)
	}
	weak, err := p.Invoke(spec.Inc("c", 10), false)
	if err != nil {
		t.Fatal(err)
	}
	var drained Effects
	if _, err := p.DrainInto(&drained); err != nil {
		t.Fatal(err)
	}
	if p.CommittedLen() != 1 {
		t.Fatalf("fixture committed length %d, want 1", p.CommittedLen())
	}
	return p, weak.RBCast[0].Dot
}

// TestAcceptAdmissionRule walks every branch of the admission rule both
// drivers share: Covers gates the invocation on its frozen demands, and
// Accept fences the clock, then serves a strong read locally under the
// ordering lease when the cast gate holds, or invokes. The holder predicate
// is consulted only for a strong read-only operation.
func TestAcceptAdmissionRule(t *testing.T) {
	read, inc := spec.CtrGet("c"), spec.Inc("c", 100)
	holds, refuses := func() bool { return true }, func() bool { return false }
	for _, tc := range []struct {
		name        string
		inv         Invocation
		demandTent  bool // add the fixture's tentative dot to the read demand
		holder      func() bool
		wantCovered bool
		wantLeased  bool
		wantCast    bool
		wantCalls   int
		wantValue   spec.Value
	}{
		{name: "plain weak op", inv: Invocation{Op: inc, Level: Weak}, holder: holds,
			wantCovered: true, wantCast: true, wantValue: int64(111)},
		{name: "plain strong op", inv: Invocation{Op: inc, Level: Strong}, holder: holds,
			wantCovered: true, wantCast: true},
		{name: "lease read served", inv: Invocation{Op: read, Level: Strong, CastOK: true, CastCeil: 1}, holder: holds,
			wantCovered: true, wantLeased: true, wantCalls: 1, wantValue: int64(1)},
		{name: "lease read, gate not proven", inv: Invocation{Op: read, Level: Strong, CastCeil: 1}, holder: holds,
			wantCovered: true, wantCast: true, wantCalls: 1},
		{name: "lease read, cast past the prefix", inv: Invocation{Op: read, Level: Strong, CastOK: true, CastCeil: 2}, holder: holds,
			wantCovered: true, wantCast: true, wantCalls: 1},
		{name: "lease read, lease not held", inv: Invocation{Op: read, Level: Strong, CastOK: true}, holder: refuses,
			wantCovered: true, wantCast: true, wantCalls: 1},
		{name: "lease read, leases off", inv: Invocation{Op: read, Level: Strong, CastOK: true},
			wantCovered: true, wantCast: true},
		{name: "strong update under the lease", inv: Invocation{Op: inc, Level: Strong, CastOK: true}, holder: holds,
			wantCovered: true, wantCast: true},
		{name: "weak read, not leased", inv: Invocation{Op: read, Level: Weak, CastOK: true}, holder: holds,
			wantCovered: true, wantValue: int64(11)},
		{name: "weak read covered by an executed dot", inv: Invocation{Op: read, Level: Weak}, demandTent: true, holder: holds,
			wantCovered: true, wantValue: int64(11)},
		{name: "strong read uncovered by an uncommitted dot", inv: Invocation{Op: read, Level: Strong, CastOK: true}, demandTent: true, holder: holds},
		{name: "update uncovered by an unknown dot", inv: Invocation{Op: inc, Level: Weak,
			Write: Vec{Frontier: []Dot{{Replica: 2, EventNo: 9}}}}, holder: holds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, tent := acceptFixture(t)
			inv := tc.inv
			inv.Session = 7
			if tc.demandTent {
				inv.Read.Add(tent, 0)
			}
			if got := p.Covers(inv); got != tc.wantCovered {
				t.Fatalf("Covers = %v, want %v", got, tc.wantCovered)
			}
			if !tc.wantCovered {
				return
			}
			calls := 0
			var holder func() bool
			if tc.holder != nil {
				holder = func() bool { calls++; return tc.holder() }
			}
			var eff Effects
			req, leased, err := p.Accept(inv, holder, &eff)
			if err != nil {
				t.Fatal(err)
			}
			if leased != tc.wantLeased || (len(eff.TOBCast) > 0) != tc.wantCast {
				t.Errorf("leased=%v cast=%d, want leased=%v cast=%v", leased, len(eff.TOBCast), tc.wantLeased, tc.wantCast)
			}
			if calls != tc.wantCalls {
				t.Errorf("holder called %d times, want %d", calls, tc.wantCalls)
			}
			if req.Strong != (inv.Level == Strong) || req.Op != inv.Op {
				t.Errorf("minted %+v for a %s %s", req, inv.Level, inv.Op.Name())
			}
			if tc.wantValue != nil {
				if len(eff.Responses) != 1 || !spec.Equal(eff.Responses[0].Value, tc.wantValue) {
					t.Fatalf("responses %+v, want one with value %v", eff.Responses, tc.wantValue)
				}
				if got := eff.Responses[0].Committed; got != tc.wantLeased {
					t.Errorf("response committed=%v, want %v", got, tc.wantLeased)
				}
			}
		})
	}
}

// TestAcceptFencesClock: the fence lifts the minted timestamp above the
// session's vectors, on the lease path as on the invoke path.
func TestAcceptFencesClock(t *testing.T) {
	for _, inv := range []Invocation{
		{Op: spec.Inc("c", 1), Level: Weak, Fence: 500},
		{Op: spec.CtrGet("c"), Level: Strong, Fence: 500, CastOK: true},
	} {
		p, _ := acceptFixture(t)
		var eff Effects
		req, leased, err := p.Accept(inv, func() bool { return true }, &eff)
		if err != nil {
			t.Fatal(err)
		}
		if leased != (inv.Level == Strong) {
			t.Errorf("%s %s: leased=%v", inv.Level, inv.Op.Name(), leased)
		}
		if req.Timestamp <= 500 {
			t.Errorf("%s %s minted at %d, want > 500", inv.Level, inv.Op.Name(), req.Timestamp)
		}
	}
}
