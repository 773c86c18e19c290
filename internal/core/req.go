// Package core implements the paper's primary contribution: the (modified)
// Bayou protocol of Algorithm 1, and the improved variant of Algorithm 2
// (Appendix A.1) that prevents circular causality and makes weak operations
// bounded wait-free.
//
// A Replica is a pure state machine in the sense of the system model of
// Appendix A.2.1: it reacts to input events (invoke, RB-deliver,
// TOB-deliver) and internal events (rollback, execute) by atomically
// transitioning state and emitting effects (messages to broadcast, responses
// to clients). All scheduling — network, timers, interleaving of internal
// steps — lives outside, in internal/cluster, which is what makes the
// Figure 1/Figure 2 schedules ("local execution is for some reason delayed")
// and the slow-replica experiment of §2.3 directly expressible.
package core

import (
	"fmt"
	"strconv"

	"bayou/internal/spec"
)

// ReplicaID numbers the replicas 0..n-1.
type ReplicaID int

// SessionID identifies one sequential client session (§3.2: a history's ß
// equivalence classes). Many sessions may be bound to the same replica; each
// issues at most one operation at a time. By convention the driver reserves
// the ids 0..n-1 for one default session per replica (so seed histories,
// which conflated session with replica, read unchanged) and mints fresh ids
// from n upwards.
type SessionID int64

// Dot uniquely identifies a request: the issuing replica and that replica's
// invocation counter (Algorithm 1 line 11: (i, currEventNo)).
type Dot struct {
	Replica ReplicaID
	EventNo int64
}

// String renders the dot as a stable request identifier. It is on the
// execute/rollback hot path (the state object keys undo records by it), so
// it is built with strconv rather than fmt.
func (d Dot) String() string {
	buf := make([]byte, 0, 16)
	buf = append(buf, 'r')
	buf = strconv.AppendInt(buf, int64(d.Replica), 10)
	buf = append(buf, '#')
	buf = strconv.AppendInt(buf, d.EventNo, 10)
	return string(buf)
}

// less orders dots lexicographically.
func (d Dot) less(o Dot) bool {
	if d.Replica != o.Replica {
		return d.Replica < o.Replica
	}
	return d.EventNo < o.EventNo
}

// cmp is the three-way form of less, for slices.SortFunc.
func (d Dot) cmp(o Dot) int {
	switch {
	case d.less(o):
		return -1
	case o.less(d):
		return 1
	default:
		return 0
	}
}

// Req is the request record broadcast between replicas (Algorithm 1 line 1):
// invocation timestamp, dot, strong/weak flag, and the operation itself.
//
// The issuing session is deliberately NOT part of the record: the dot is
// the request's identity, and sessions are a client-side notion the rest of
// the protocol never consults. The replica keeps the session on its
// response-attribution entries (reqsAwaitingResp) only, so the schedule
// engine — which copies Req values constantly while editing plans — does
// not pay for the field, and the wire format matches the paper's.
type Req struct {
	Timestamp int64
	Dot       Dot
	Strong    bool
	Op        spec.Op
}

// Less is the request order of Algorithm 1 line 2: lexicographic on
// (timestamp, dot). It is a total order because dots are unique.
func (r Req) Less(o Req) bool {
	if r.Timestamp != o.Timestamp {
		return r.Timestamp < o.Timestamp
	}
	return r.Dot.less(o.Dot)
}

// ID returns the request's unique identifier (its dot, rendered).
func (r Req) ID() string { return r.Dot.String() }

// Level distinguishes the two consistency levels of the lvl attribute (§3.2).
type Level int

// The two levels of the paper: weak operations return tentatively, strong
// operations return only after the final execution order is established.
const (
	Weak Level = iota + 1
	Strong
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Weak:
		return "weak"
	case Strong:
		return "strong"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// LevelOf returns the level encoded in a request.
func LevelOf(r Req) Level {
	if r.Strong {
		return Strong
	}
	return Weak
}

// Variant selects which protocol a replica runs.
type Variant int

// VariantDefault is the explicit "let the constructor choose" sentinel (it
// resolves to NoCircularCausality). Constructors reject any other value that
// is not a declared variant instead of silently defaulting.
const VariantDefault Variant = 0

const (
	// Original is Algorithm 1: every request is RB-cast and TOB-cast,
	// weak responses are returned at first (tentative) execution. It
	// exhibits both anomalies of §2.2 — temporary operation reordering
	// and circular causality — and weak operations are not bounded
	// wait-free (§2.3).
	Original Variant = iota + 1
	// NoCircularCausality is Algorithm 2 (Appendix A.1): strong requests
	// are disseminated by TOB only; weak requests are executed
	// immediately on the current state (then rolled back and scheduled
	// tentatively), making them bounded wait-free; weak read-only
	// requests are purely local. Circular causality is eliminated;
	// temporary operation reordering necessarily remains (Theorem 1).
	NoCircularCausality
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantDefault:
		return "default"
	case Original:
		return "original"
	case NoCircularCausality:
		return "no-circular-causality"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Valid reports whether v names a declared protocol variant (the default
// sentinel is not itself a variant; constructors resolve it first).
func (v Variant) Valid() bool {
	return v == Original || v == NoCircularCausality
}

// Response is a value returned to a client, together with the witness data
// the correctness checkers consume (the exec(e) trace and committed length
// used to build vis/ar/par exactly as in the proofs of Theorems 2 and 3).
type Response struct {
	Req   Req
	Value spec.Value
	// Committed reports whether the request was on the committed list
	// when the response value was computed (strong responses always are;
	// weak responses usually are not).
	Committed bool
	// Trace is the suffix of exec(e) — the current trace of the state
	// object, executed · reverse(toBeRolledBack), at the moment the
	// response value was computed, excluding the request itself — past the
	// TraceBase implicit prefix.
	Trace []Dot
	// TraceBase counts the implicit leading entries of exec(e) that the
	// replica's checkpoint has truncated: exactly the committed prefix at
	// commit positions 1..TraceBase, in commit order. Zero (the full trace
	// is explicit) until the replica checkpoints. Recorders reconstruct the
	// absolute trace from their own commit-order index, so the checker
	// witnesses stay exact across truncation.
	TraceBase int
	// CommittedLen is the absolute |committed| (checkpointed prefix
	// included) at the moment the response value was computed (anchors
	// read-only events in the arbitration witness).
	CommittedLen int
}

// LostResponse reports a continuation whose result is unrecoverable: the
// request committed while its replica was down, and the replica caught up by
// checkpoint state transfer instead of per-slot replay, so the response
// value was never computed anywhere. The operation itself took effect — it
// is inside the installed image — only its return value is lost. This is
// the price of truncating logs under a crashed replica (the original Bayou
// pays it below the omitted vector); drivers surface it to the client as a
// terminal lost-result completion.
type LostResponse struct {
	Dot     Dot
	Session SessionID
}

// Status classifies the lifecycle of a response value — the observable side
// of the paper's response fluctuation (§4: FEC's fluct is exactly the
// sequence of these transitions before stabilization).
type Status int

const (
	// StatusTentative is the first (weak) response, computed on a schedule
	// that consensus may still rearrange.
	StatusTentative Status = iota + 1
	// StatusReordered marks a re-execution of an already-answered weak
	// request on a rearranged schedule: the response value the client saw
	// has fluctuated (it would read differently now).
	StatusReordered
	// StatusCommitted marks the final execution: the request's position is
	// fixed by TOB and the value can never change again.
	StatusCommitted
	// StatusAborted is the terminal status of a transaction whose
	// precondition failed at its committed position (the response value is
	// the spec abort marker). It is StatusCommitted under a clearer name —
	// the order is just as fixed, the unit just declined to write — so a
	// tentative abort that a rebase later turns into success still streams
	// as tentative/reordered like any other fluctuation.
	StatusAborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusTentative:
		return "tentative"
	case StatusReordered:
		return "reordered"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Transition is one response-status event for a locally-invoked request:
// the engine emits StatusTentative when the first weak value goes out,
// StatusReordered every time that request is re-executed on a rearranged
// schedule before commit, and StatusCommitted when the final order fixes
// the value. Drivers stream these to watch subscriptions; emission is off
// by default (EnableTransitions) so raw replica harnesses pay nothing.
type Transition struct {
	Dot     Dot
	Session SessionID
	Status  Status
	Value   spec.Value
}

// Effects collects everything a state transition asks the environment to do.
//
// The single-shot transition methods (Invoke, RBDeliver, TOBDeliver, Step,
// Drain) return a freshly allocated Effects each call. The batched "*Into"
// and "*Batch" variants instead append into a caller-owned accumulator;
// pairing them with Reset lets a driver reuse the backing arrays across
// transitions and route effects allocation-free.
type Effects struct {
	RBCast    []Req
	TOBCast   []Req
	Responses []Response
	// StableNotices carry the *stable* value of weak operations that
	// already returned tentatively — the optional notification of the
	// original Bayou (footnote 3 of the paper: "optionally, [the client]
	// can be notified once the final order of operation execution is
	// established and the generated response is stable"). The
	// parenthesized values of Figure 1 are exactly these notices.
	StableNotices []Response
	// Transitions carry response-status lifecycle events (see Transition);
	// empty unless the replica has transitions enabled.
	Transitions []Transition
	// Lost carries continuations orphaned by checkpoint state transfer
	// (see LostResponse); empty outside that recovery path.
	Lost []LostResponse
}

// Reset empties the effect lists while keeping their backing arrays, so an
// accumulator can be reused across transitions. Previously returned slices
// are invalidated: consume (or copy out) effects before resetting.
func (e *Effects) Reset() {
	e.RBCast = e.RBCast[:0]
	e.TOBCast = e.TOBCast[:0]
	e.Responses = e.Responses[:0]
	e.StableNotices = e.StableNotices[:0]
	e.Transitions = e.Transitions[:0]
	e.Lost = e.Lost[:0]
}

// EffectsPool recycles Effects accumulators for a single-threaded driver.
// It is a stack rather than a single buffer because drivers can nest:
// routing an invocation's TOB cast through a primary sequencer self-commits
// synchronously, re-entering the driver while the outer effects are still
// being routed. Not safe for concurrent use.
type EffectsPool struct {
	free []*Effects
}

// Take pops a reset accumulator (allocating if the pool is empty); return
// it with Put after routing its contents.
func (p *EffectsPool) Take() *Effects {
	if len(p.free) == 0 {
		return &Effects{}
	}
	e := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	e.Reset()
	return e
}

// Put returns an accumulator to the pool.
func (p *EffectsPool) Put(e *Effects) { p.free = append(p.free, e) }
