package core

import (
	"fmt"
	"math/rand"
	"testing"

	"bayou/internal/spec"
)

// refEngine is the seed's pseudocode-literal execution engine: it keeps
// committed · tentative explicitly and rebuilds the whole schedule with a
// common-prefix rescan on every change (Algorithm 1 line 35, implemented
// naively in O(n) per transition). The differential property test drives it
// in lock-step with the incremental engine and demands identical
// executed/toBeExecuted/toBeRolledBack/trace after every transition.
type refEngine struct {
	committed []Req
	tentative []Req

	executed       []Req
	toBeExecuted   []Req
	toBeRolledBack []Req
}

func (e *refEngine) insertTentative(r Req) {
	i := 0
	for i < len(e.tentative) && e.tentative[i].Less(r) {
		i++
	}
	e.tentative = append(e.tentative, Req{})
	copy(e.tentative[i+1:], e.tentative[i:])
	e.tentative[i] = r
	e.adjust()
}

func (e *refEngine) commit(r Req) {
	e.committed = append(e.committed, r)
	keep := e.tentative[:0]
	for _, x := range e.tentative {
		if x.Dot != r.Dot {
			keep = append(keep, x)
		}
	}
	e.tentative = keep
	e.adjust()
}

// adjust is the seed adjustExecution verbatim: full rebuild, full rescan.
func (e *refEngine) adjust() {
	newOrder := make([]Req, 0, len(e.committed)+len(e.tentative))
	newOrder = append(newOrder, e.committed...)
	newOrder = append(newOrder, e.tentative...)

	n := 0
	for n < len(e.executed) && n < len(newOrder) && e.executed[n].Dot == newOrder[n].Dot {
		n++
	}
	outOfOrder := e.executed[n:]
	e.executed = e.executed[:n:n]
	for i := len(outOfOrder) - 1; i >= 0; i-- {
		e.toBeRolledBack = append(e.toBeRolledBack, outOfOrder[i])
	}
	e.toBeExecuted = append([]Req(nil), newOrder[n:]...)
}

// step mirrors the replica's internal event: one rollback if pending,
// otherwise one execution.
func (e *refEngine) step() {
	if len(e.toBeRolledBack) > 0 {
		e.toBeRolledBack = e.toBeRolledBack[1:]
		return
	}
	if len(e.toBeExecuted) == 0 {
		return
	}
	e.executed = append(e.executed, e.toBeExecuted[0])
	e.toBeExecuted = e.toBeExecuted[1:]
}

func (e *refEngine) trace() []Dot {
	out := make([]Dot, 0, len(e.executed)+len(e.toBeRolledBack))
	for _, r := range e.executed {
		out = append(out, r.Dot)
	}
	for i := len(e.toBeRolledBack) - 1; i >= 0; i-- {
		out = append(out, e.toBeRolledBack[i].Dot)
	}
	return out
}

func dotsOf(rs []Req) []Dot {
	out := make([]Dot, len(rs))
	for i, r := range rs {
		out[i] = r.Dot
	}
	return out
}

func sameDots(a, b []Dot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compare asserts the two engines agree on every schedule component.
func compare(t *testing.T, step int, p *Replica, ref *refEngine) {
	t.Helper()
	checks := []struct {
		name string
		got  []Dot
		want []Dot
	}{
		{"committed", dotsOf(p.committed), dotsOf(ref.committed)},
		{"tentative", dotsOf(p.tentative), dotsOf(ref.tentative)},
		{"executed", dotsOf(p.executed), dotsOf(ref.executed)},
		{"toBeExecuted", dotsOf(p.tbeBuf[p.tbeHead:]), dotsOf(ref.toBeExecuted)},
		{"toBeRolledBack", dotsOf(p.toBeRolledBack), dotsOf(ref.toBeRolledBack)},
		{"trace", p.currentTrace(), ref.trace()},
	}
	for _, c := range checks {
		if !sameDots(c.got, c.want) {
			t.Fatalf("transition %d: %s diverged\nincremental: %v\nreference:   %v", step, c.name, c.got, c.want)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("transition %d: %v", step, err)
	}
}

// TestEngineMatchesNaiveReference drives the incremental engine and the
// naive rebuild-from-scratch reference through randomized schedules of
// invokes, RB/TOB deliveries (single and batched) and internal steps, for
// both protocol variants, comparing all four schedule components and the
// trace after every transition. The seeds are a fixed corpus so subtest
// names are stable; edit the base to explore others.
func TestEngineMatchesNaiveReference(t *testing.T) {
	const base = 1792039697524778631
	for run := 0; run < 8; run++ {
		seed := base + int64(run)*7919
		for _, variant := range []Variant{Original, NoCircularCausality} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, variant), func(t *testing.T) {
				diffRun(t, seed, variant)
			})
		}
	}
}

func diffRun(t *testing.T, seed int64, variant Variant) {
	rng := rand.New(rand.NewSource(seed))
	clock := int64(0)
	p := NewReplica(0, variant, func() int64 { return clock })
	ref := &refEngine{}

	var tobQueue []Req // known requests not yet committed, in cast order
	remoteEvent := int64(0)
	const transitions = 400

	tobUnknown := int64(0) // requests committed before any RB delivery here
	for i := 0; i < transitions; i++ {
		clock += int64(rng.Intn(12))
		switch rng.Intn(11) {
		case 0, 1: // local invoke (weak or strong)
			strong := rng.Intn(4) == 0
			var eff Effects
			r, err := p.InvokeInto(pickOp(rng), strong, &eff)
			if err != nil {
				t.Fatalf("invoke: %v", err)
			}
			if len(eff.TOBCast) > 0 {
				tobQueue = append(tobQueue, r)
			}
			// Mirror exactly the schedules the replica touched: weak
			// requests enter tentative under both variants (read-only
			// ones only under Algorithm 1); strong requests only
			// under Algorithm 1.
			if p.tentativeSet[r.Dot] {
				ref.insertTentative(r)
			}
		case 2, 3, 4: // remote RB delivery — fresh, stale, or a duplicate
			if rng.Intn(5) == 0 && len(tobQueue) > 0 {
				// Duplicate delivery of a known request (or a local
				// one): the replica must ignore it, so the reference
				// is left untouched.
				r := tobQueue[rng.Intn(len(tobQueue))]
				if _, err := p.RBDeliver(r); err != nil {
					t.Fatalf("duplicate rbdeliver: %v", err)
				}
				break
			}
			remoteEvent++
			r := Req{
				Timestamp: clock - int64(rng.Intn(40)),
				Dot:       Dot{Replica: ReplicaID(1 + rng.Intn(3)), EventNo: remoteEvent},
				Op:        spec.Append("r"),
			}
			known := p.committedSet[r.Dot] || p.tentativeSet[r.Dot]
			if _, err := p.RBDeliver(r); err != nil {
				t.Fatalf("rbdeliver: %v", err)
			}
			if !known {
				ref.insertTentative(r)
				tobQueue = append(tobQueue, r)
			}
		case 5: // TOB delivery — commit order sometimes disagrees with cast order
			if len(tobQueue) == 0 {
				continue
			}
			k := 0
			if rng.Intn(3) == 0 {
				k = rng.Intn(len(tobQueue))
			}
			r := tobQueue[k]
			tobQueue = append(tobQueue[:k], tobQueue[k+1:]...)
			if _, err := p.TOBDeliver(r); err != nil {
				t.Fatalf("tobdeliver: %v", err)
			}
			ref.commit(r)
		case 6: // TOB batch delivery (the consensus-cascade shape)
			if len(tobQueue) == 0 {
				continue
			}
			n := 1 + rng.Intn(min(3, len(tobQueue)))
			batch := append([]Req(nil), tobQueue[:n]...)
			tobQueue = tobQueue[n:]
			var eff Effects
			if err := p.TOBDeliverBatch(batch, &eff); err != nil {
				t.Fatalf("tobdeliverbatch: %v", err)
			}
			for _, r := range batch {
				ref.commit(r)
			}
		case 7: // one internal step
			if _, err := p.Step(); err != nil {
				t.Fatalf("step: %v", err)
			}
			ref.step()
		case 8: // TOB delivery of a request never seen here (commit before RB)
			tobUnknown++
			r := Req{
				Timestamp: clock - int64(rng.Intn(40)),
				Dot:       Dot{Replica: 9, EventNo: tobUnknown},
				Op:        spec.Append("u"),
			}
			if _, err := p.TOBDeliver(r); err != nil {
				t.Fatalf("tobdeliver unknown: %v", err)
			}
			ref.commit(r)
		case 9: // bounded multi-step
			var eff Effects
			n, err := p.StepN(1+rng.Intn(4), &eff)
			if err != nil {
				t.Fatalf("stepn: %v", err)
			}
			for k := 0; k < n; k++ {
				ref.step()
			}
		default: // drain
			var eff Effects
			n, err := p.DrainInto(&eff)
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			for k := 0; k < n; k++ {
				ref.step()
			}
		}
		compare(t, i, p, ref)
	}
}

func pickOp(rng *rand.Rand) spec.Op {
	switch rng.Intn(4) {
	case 0:
		return spec.Append("l")
	case 1:
		return spec.Inc("c", int64(rng.Intn(5)))
	case 2:
		return spec.Put("k", int64(rng.Intn(9)))
	default:
		return spec.ListRead()
	}
}
