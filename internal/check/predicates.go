package check

import (
	"fmt"

	"bayou/internal/core"
	"bayou/internal/spec"
)

// EV checks eventual visibility (§4): every event that returned before the
// quiescence cutoff must be visible to every probe event invoked after it.
// (On finite histories the paper's "all but finitely many" is vacuous; the
// probe formulation is the standard finite-trace strengthening — see
// DESIGN.md §3.)
func (w *Witness) EV() Result {
	probes := w.H.Probes()
	if len(probes) == 0 {
		return Result{Predicate: "EV", Holds: true, Detail: "no probe events after quiescence (vacuous)"}
	}
	for _, e := range w.H.Events {
		if e.Pending || e.Return > w.H.StableAt {
			continue
		}
		for _, p := range probes {
			if p == e {
				continue
			}
			if !w.Vis(e, p) {
				return Result{Predicate: "EV", Holds: false,
					Detail: fmt.Sprintf("%s (%s) not visible to post-quiescence probe %s (%s)", e.Dot, e.Op.Name(), p.Dot, p.Op.Name())}
			}
		}
	}
	return Result{Predicate: "EV", Holds: true, Detail: fmt.Sprintf("%d probes", len(probes))}
}

// NCC checks no-circular-causality: hb = (so ∪ vis)⁺ is acyclic (§4).
func (w *Witness) NCC() Result {
	cycle := w.hbGraph().cycle()
	if cycle == nil {
		return Result{Predicate: "NCC", Holds: true}
	}
	names := make([]string, 0, len(cycle))
	for _, id := range cycle {
		e := w.H.Events[id]
		names = append(names, fmt.Sprintf("%s(%s)", e.Dot, e.Op.Name()))
	}
	return Result{Predicate: "NCC", Holds: false, Detail: fmt.Sprintf("causality cycle: %v", names)}
}

// FRVal checks the fluctuating return-value predicate FRVal(l,F) (§4.2):
// every level-l response equals the specification applied to the visible
// updating operations in *perceived* (par) order.
func (w *Witness) FRVal(l core.Level) Result {
	name := fmt.Sprintf("FRVal(%s)", l)
	for _, e := range w.H.Levels(l) {
		if e.Pending {
			continue
		}
		want := w.expectedFRVal(e)
		if !spec.Equal(e.RVal, want) {
			return Result{Predicate: name, Holds: false,
				Detail: fmt.Sprintf("%s %s returned %s, specification gives %s", e.Dot, e.Op.Name(), spec.Encode(e.RVal), spec.Encode(want))}
		}
	}
	return Result{Predicate: name, Holds: true}
}

// RVal checks the plain return-value predicate RVal(l,F) (§4.1): every
// level-l response equals the specification applied to the visible updating
// operations in *arbitration* order. Bayou's weak operations violate this on
// reordered schedules — that is exactly the BEC(weak,F) failure of §4.1.
func (w *Witness) RVal(l core.Level) Result {
	name := fmt.Sprintf("RVal(%s)", l)
	for _, e := range w.H.Levels(l) {
		if e.Pending {
			continue
		}
		want := w.expectedRVal(e)
		if !spec.Equal(e.RVal, want) {
			return Result{Predicate: name, Holds: false,
				Detail: fmt.Sprintf("%s %s returned %s, arbitration-order specification gives %s", e.Dot, e.Op.Name(), spec.Encode(e.RVal), spec.Encode(want))}
		}
	}
	return Result{Predicate: name, Holds: true}
}

// CPar checks convergent perceived arbitration CPar(l) (§4.2): for level-l
// events invoked after quiescence, the perceived order of their visible
// updating context must agree with ar — i.e., rank(vis⁻¹(e'), par(e'), e) =
// rank(vis⁻¹(e'), ar, e) for every visible e. Events before the cutoff may
// disagree (that is the "temporarily" in temporary operation reordering).
func (w *Witness) CPar(l core.Level) Result {
	name := fmt.Sprintf("CPar(%s)", l)
	checked := 0
	for _, e := range w.H.Levels(l) {
		if e.Pending || e.Invoke <= w.H.StableAt {
			continue
		}
		checked++
		ctx := w.updatingTrace(e)
		for i := 1; i < len(ctx); i++ {
			if w.ArLess(ctx[i], ctx[i-1]) {
				return Result{Predicate: name, Holds: false,
					Detail: fmt.Sprintf("post-quiescence %s (%s) still perceives %s before %s, against ar", e.Dot, e.Op.Name(), ctx[i-1].Dot, ctx[i].Dot)}
			}
		}
	}
	return Result{Predicate: name, Holds: true, Detail: fmt.Sprintf("%d post-quiescence events", checked)}
}

// SinOrd checks single order SinOrd(l) (§4.3): for completed level-l events,
// visibility coincides with arbitration (pending events may be invisible).
func (w *Witness) SinOrd(l core.Level) Result {
	name := fmt.Sprintf("SinOrd(%s)", l)
	for _, e := range w.H.Levels(l) {
		if e.Pending {
			continue
		}
		for _, x := range w.H.Events {
			if x == e {
				continue
			}
			visXE := w.Vis(x, e)
			arXE := w.ArLess(x, e)
			if visXE && !arXE {
				return Result{Predicate: name, Holds: false,
					Detail: fmt.Sprintf("%s visible to %s but arbitrated after it", x.Dot, e.Dot)}
			}
			if arXE && !visXE && !x.Pending {
				return Result{Predicate: name, Holds: false,
					Detail: fmt.Sprintf("%s arbitrated before %s (%s) but not visible to it", x.Dot, e.Dot, e.Op.Name())}
			}
		}
	}
	return Result{Predicate: name, Holds: true}
}

// SessArb checks session arbitration SessArb(l) (§4.3): session order into
// level-l events is respected by arbitration.
func (w *Witness) SessArb(l core.Level) Result {
	name := fmt.Sprintf("SessArb(%s)", l)
	for _, e := range w.H.Levels(l) {
		for _, x := range w.H.Events {
			if x == e || !w.H.SessionOrder(x, e) {
				continue
			}
			if !w.ArLess(x, e) {
				return Result{Predicate: name, Holds: false,
					Detail: fmt.Sprintf("session order %s before %s not respected by arbitration", x.Dot, e.Dot)}
			}
		}
	}
	return Result{Predicate: name, Holds: true}
}

// BEC assembles Basic Eventual Consistency BEC(l,F) = EV ∧ NCC ∧ RVal(l,F)
// (§4.1).
func (w *Witness) BEC(l core.Level) Report {
	return Report{
		Guarantee: fmt.Sprintf("BEC(%s)", l),
		Results:   []Result{w.EV(), w.NCC(), w.RVal(l)},
	}
}

// FEC assembles Fluctuating Eventual Consistency FEC(l,F) = EV ∧ NCC ∧
// FRVal(l,F) ∧ CPar(l) (§4.2) — the paper's new correctness criterion.
func (w *Witness) FEC(l core.Level) Report {
	return Report{
		Guarantee: fmt.Sprintf("FEC(%s)", l),
		Results:   []Result{w.EV(), w.NCC(), w.FRVal(l), w.CPar(l)},
	}
}

// Seq assembles sequential consistency Seq(l,F) = SinOrd(l) ∧ SessArb(l) ∧
// RVal(l,F) (§4.3).
func (w *Witness) Seq(l core.Level) Report {
	return Report{
		Guarantee: fmt.Sprintf("Seq(%s)", l),
		Results:   []Result{w.SinOrd(l), w.SessArb(l), w.RVal(l)},
	}
}

// SeqPendingAware is Seq(l,F) plus an explicit account of pending level-l
// events: Theorem 3's Seq(strong,F) failure in asynchronous runs manifests
// as strong events pending forever, which this report surfaces.
func (w *Witness) SeqPendingAware(l core.Level) Report {
	rep := w.Seq(l)
	pending := 0
	for _, e := range w.H.Levels(l) {
		if e.Pending {
			pending++
		}
	}
	res := Result{Predicate: fmt.Sprintf("NoPending(%s)", l), Holds: pending == 0,
		Detail: fmt.Sprintf("%d pending %s events", pending, l)}
	rep.Results = append(rep.Results, res)
	return rep
}

// MonotonicReads checks the second session guarantee of [Terry et al. 94]:
// once a session has observed an updating operation, every later operation
// of the session observes it too. Algorithm 1 provides it (reads are
// scheduled behind the re-execution queue); Algorithm 2's immediate
// execution can read mid-rollback and lose a previously-observed write.
func (w *Witness) MonotonicReads() Result {
	for _, e := range w.H.Events {
		if e.Pending {
			continue
		}
		for _, earlier := range w.H.Events {
			if earlier.Pending || earlier == e || !w.H.SessionOrder(earlier, e) {
				continue
			}
			// Every updating operation the session already observed
			// (in any earlier event's trace) must stay observed.
			for _, x := range w.H.Events {
				if x == e || x.IsReadOnly() {
					continue
				}
				if w.inTrace(earlier, x.Dot) && !w.inTrace(e, x.Dot) {
					return Result{Predicate: "MonotonicReads", Holds: false,
						Detail: fmt.Sprintf("%s observed %s but the later %s lost it", earlier.Dot, x.Dot, e.Dot)}
				}
			}
		}
	}
	return Result{Predicate: "MonotonicReads", Holds: true}
}

// MonotonicWrites checks the third session guarantee of [Terry et al. 94]:
// a session's writes are observed everywhere in session order, and never the
// later without the earlier. Bayou provides it through per-link FIFO
// dissemination and FIFO total order broadcast.
func (w *Witness) MonotonicWrites() Result {
	for _, w1 := range w.H.Events {
		if w1.IsReadOnly() {
			continue
		}
		for _, w2 := range w.H.Events {
			if w2.IsReadOnly() || !w.H.SessionOrder(w1, w2) {
				continue
			}
			for _, e := range w.H.Events {
				if e.Pending || !w.inTrace(e, w2.Dot) {
					continue
				}
				if !w.inTrace(e, w1.Dot) {
					return Result{Predicate: "MonotonicWrites", Holds: false,
						Detail: fmt.Sprintf("%s observed %s without the session-earlier %s", e.Dot, w2.Dot, w1.Dot)}
				}
				if w.tracePos(e, w1.Dot) > w.tracePos(e, w2.Dot) {
					return Result{Predicate: "MonotonicWrites", Holds: false,
						Detail: fmt.Sprintf("%s observed %s before the session-earlier %s", e.Dot, w2.Dot, w1.Dot)}
				}
			}
		}
	}
	return Result{Predicate: "MonotonicWrites", Holds: true}
}

// WritesFollowReads checks the fourth session guarantee of [Terry et al.
// 94]: if a session observed write x and then issued write v, then every
// event observing v also observes x (before v). Bayou does NOT provide it —
// FEC is strictly weaker than causal consistency (§6) — and the violation is
// demonstrable with one delayed link (see the cluster tests).
func (w *Witness) WritesFollowReads() Result {
	for _, r := range w.H.Events {
		if r.Pending {
			continue
		}
		for _, v := range w.H.Events {
			if v.IsReadOnly() || !w.H.SessionOrder(r, v) {
				continue
			}
			for _, x := range w.H.Events {
				if x == v || x.IsReadOnly() || !w.inTrace(r, x.Dot) {
					continue
				}
				for _, e := range w.H.Events {
					if e.Pending || !w.inTrace(e, v.Dot) {
						continue
					}
					if !w.inTrace(e, x.Dot) {
						return Result{Predicate: "WritesFollowReads", Holds: false,
							Detail: fmt.Sprintf("%s observed %s but not %s, which %s's session had read", e.Dot, v.Dot, x.Dot, v.Dot)}
					}
					if w.tracePos(e, x.Dot) > w.tracePos(e, v.Dot) {
						return Result{Predicate: "WritesFollowReads", Holds: false,
							Detail: fmt.Sprintf("%s observed %s before %s, which %s's session had read first", e.Dot, v.Dot, x.Dot, v.Dot)}
					}
				}
			}
		}
	}
	return Result{Predicate: "WritesFollowReads", Holds: true}
}

// CountReordered returns the number of events whose perceived context order
// (the exec trace) deviates from the final arbitration order — the paper's
// temporary operation reordering, as a measurable quantity for the
// comparison experiments.
func (w *Witness) CountReordered() int {
	count := 0
	for _, e := range w.H.Events {
		if e.Pending {
			continue
		}
		ctx := w.updatingTrace(e)
		for i := 1; i < len(ctx); i++ {
			if w.ArLess(ctx[i], ctx[i-1]) {
				count++
				break
			}
		}
	}
	return count
}

// ReadYourWrites checks the session guarantee of [Terry et al. 94] discussed
// in §A.1.2: every weak response must reflect all preceding updating
// operations of its own session. Algorithm 1 provides it; Algorithm 2 trades
// it away for bounded wait-freedom.
func (w *Witness) ReadYourWrites() Result {
	for _, e := range w.H.Events {
		if e.Pending {
			continue
		}
		for _, x := range w.H.Events {
			if x == e || x.IsReadOnly() || !w.H.SessionOrder(x, e) {
				continue
			}
			if !w.inTrace(e, x.Dot) {
				return Result{Predicate: "ReadYourWrites", Holds: false,
					Detail: fmt.Sprintf("%s (%s) did not observe own session's earlier %s (%s)", e.Dot, e.Op.Name(), x.Dot, x.Op.Name())}
			}
		}
	}
	return Result{Predicate: "ReadYourWrites", Holds: true}
}
