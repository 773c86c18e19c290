package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"bayou/internal/spec"
	"bayou/internal/stateobj"
)

// ErrInvariant reports a broken internal invariant; it always indicates a
// protocol implementation bug, never a legal run.
var ErrInvariant = errors.New("core: protocol invariant violated")

// pendingResp is a reqsAwaitingResp entry (Algorithm 1 line 8): ⊥ until the
// request is executed, then the stored tentative response awaiting commit.
// It also carries the issuing session, so response-status transitions can
// be attributed without widening Req itself.
type pendingResp struct {
	session      SessionID
	has          bool
	value        spec.Value
	trace        []Dot // exec(e) suffix past traceBase (see Response.TraceBase)
	traceBase    int
	committedLen int // absolute |committed| at capture
}

// Replica is one Bayou process. It is not safe for concurrent use: the
// simulation drives it from a single goroutine, mirroring the atomic-step
// automaton model.
//
// # The incremental execution engine
//
// The paper's Algorithm 1 recomputes the execution schedule against the full
// order committed · tentative on every delivery ("adjust execution", line
// 35). Implemented literally that is O(n) per transition — O(n²) per run —
// and it dominated the protocol hot paths. This engine maintains the same
// abstract state incrementally, under one structural invariant:
//
//	executed · toBeExecuted  ==  committed · tentative   (the schedule)
//
// Every input event edits the schedule at a single position d that is known
// from the event itself, with no rescan:
//
//   - a tentative insert at index i edits at d = |committed| + i;
//   - a TOB delivery of the tentative head leaves the schedule untouched
//     (the request merely migrates across the committed/tentative boundary);
//   - any other TOB delivery edits at d = |committed| (the commit position).
//
// Entries of executed at positions ≥ d are rolled back (in reverse), and
// only the schedule suffix from d onwards is rebuilt — O(suffix), which is
// O(1) for the common cases (timestamp-ordered arrivals, commits in
// tentative order) instead of O(n) always. toBeExecuted is rebuilt into a
// spare buffer that ping-pongs with the live one, so steady-state reordering
// allocates nothing.
type Replica struct {
	id      ReplicaID
	variant Variant
	state   *stateobj.State
	clock   func() int64

	currEventNo int64
	lastTS      int64 // enforces a strictly monotone local clock (footnote 9)

	committed []Req
	tentative []Req

	executed []Req
	// The pending-execution plan (toBeExecuted of Algorithm 1) is tbeBuf
	// from tbeHead on. Consuming from the head is an index bump, the
	// consumed gap doubles as O(1) prepend space, and suffix rebuilds
	// ping-pong between tbeBuf and tbeSpare — steady-state reordering
	// allocates nothing.
	tbeBuf         []Req
	tbeHead        int
	tbeSpare       []Req
	toBeRolledBack []Req

	// traceBuf mirrors the dots of executed so that currentTrace is
	// copy-free in the no-rollback case. Responses alias its prefix;
	// traceAliasedLen tracks the longest aliased prefix so a truncation
	// below it copies out first (copy-on-write) instead of corrupting
	// traces already handed to clients.
	traceBuf        []Dot
	traceAliasedLen int

	awaiting     map[Dot]*pendingResp
	awaitStable  map[Dot]*pendingResp // weak ops answered tentatively, awaiting the stable notice
	committedSet map[Dot]bool
	executedSet  map[Dot]bool
	tentativeSet map[Dot]bool

	// The checkpoint anchor (see checkpoint.go): committed, executed, the
	// trace mirror, the dedup sets and the state object's undo trace all
	// hold only the suffix past absolute position baseLen; base carries the
	// image of (and the dot summary for) the truncated prefix. Both lists
	// share the one offset — executed is a prefix of committed·tentative —
	// so every in-memory schedule-edit position is unchanged by truncation.
	baseLen int
	base    *CheckpointRecord

	// transitions gates response-status Transition emission (off by
	// default: raw replica harnesses and micro-benchmarks measure the
	// seed-comparable path; session drivers enable it for watch streams).
	transitions bool

	steps int64 // internal events executed (bounded-wait-freedom accounting)
}

// NewReplica constructs a replica. clock supplies currTime for request
// timestamps (the cluster feeds it virtual time, optionally skewed for the
// §2.3 experiments); it is made strictly monotone internally.
func NewReplica(id ReplicaID, variant Variant, clock func() int64) *Replica {
	return &Replica{
		id:           id,
		variant:      variant,
		state:        stateobj.New(),
		clock:        clock,
		awaiting:     make(map[Dot]*pendingResp),
		awaitStable:  make(map[Dot]*pendingResp),
		committedSet: make(map[Dot]bool),
		executedSet:  make(map[Dot]bool),
		tentativeSet: make(map[Dot]bool),
	}
}

// ID returns the replica's identifier.
func (p *Replica) ID() ReplicaID { return p.id }

// EnableTransitions turns on response-status Transition emission into
// Effects (see Transition). Session-oriented drivers enable it so clients
// can subscribe to fluctuations; it is off by default.
func (p *Replica) EnableTransitions() { p.transitions = true }

// emit appends a transition for the dot when emission is enabled.
func (p *Replica) emit(eff *Effects, d Dot, session SessionID, s Status, value spec.Value) {
	if !p.transitions {
		return
	}
	// A commit whose value is the transaction abort marker surfaces as the
	// terminal aborted status: same fixed position, clearer verdict. Only
	// the committed emission translates — a tentative abort may still
	// rebase into success and keeps streaming as tentative/reordered.
	if s == StatusCommitted && spec.IsAborted(value) {
		s = StatusAborted
	}
	eff.Transitions = append(eff.Transitions, Transition{
		Dot: d, Session: session, Status: s, Value: value,
	})
}

// Variant returns the protocol variant the replica runs.
func (p *Replica) Variant() Variant { return p.variant }

// now returns a strictly increasing local timestamp.
func (p *Replica) now() int64 {
	t := p.clock()
	if t <= p.lastTS {
		t = p.lastTS + 1
	}
	p.lastTS = t
	return t
}

// Invoke handles a client invocation (Algorithm 1 line 9 / Algorithm 2). It
// allocates a fresh Effects; batch drivers use InvokeInto with a reusable
// accumulator instead.
func (p *Replica) Invoke(op spec.Op, strong bool) (Effects, error) {
	var eff Effects
	if _, err := p.InvokeInto(op, strong, &eff); err != nil {
		return Effects{}, err
	}
	return eff, nil
}

// InvokeInto handles a client invocation, appending the produced effects to
// eff and returning the request record it created (so drivers need not
// reverse-engineer the dot from the effects). The invocation is attributed
// to the replica's default session (id i for replica i); multi-session
// drivers use InvokeFrom. On error the contents of eff are unspecified.
func (p *Replica) InvokeInto(op spec.Op, strong bool, eff *Effects) (Req, error) {
	return p.InvokeFrom(SessionID(p.id), op, strong, eff)
}

// InvokeFrom handles a client invocation issued by the given session,
// appending the produced effects to eff and returning the request record it
// created. Sessions are sequential clients; the replica itself accepts any
// interleaving (the driver enforces per-session FIFO), so any number of
// sessions can be bound to one replica with their invocations freely
// overlapping — the request's dot stays unique regardless because the
// replica's event counter mints it.
func (p *Replica) InvokeFrom(session SessionID, op spec.Op, strong bool, eff *Effects) (Req, error) {
	p.currEventNo++
	r := Req{Timestamp: p.now(), Dot: Dot{Replica: p.id, EventNo: p.currEventNo}, Strong: strong, Op: op}
	if p.variant == NoCircularCausality {
		return r, p.invokeModified(r, session, eff)
	}
	// Algorithm 1: broadcast via RB and TOB, simulate immediate local
	// RB-delivery, and await the response from a later execute step.
	eff.RBCast = append(eff.RBCast, r)
	eff.TOBCast = append(eff.TOBCast, r)
	p.insertTentative(r)
	p.awaiting[r.Dot] = &pendingResp{session: session}
	return r, nil
}

// invokeModified is Algorithm 2: weak requests execute immediately on the
// current state and respond at once (bounded wait-freedom); strong requests
// go through TOB only, so they never appear on any tentative list.
func (p *Replica) invokeModified(r Req, session SessionID, eff *Effects) error {
	if !r.Strong {
		value, err := p.state.Execute(r.ID(), r.Op)
		if err != nil {
			return fmt.Errorf("%w: transient execute: %v", ErrInvariant, err)
		}
		trace := p.currentTrace()
		if len(p.toBeRolledBack) == 0 {
			// Only the no-rollback fast path aliases the trace
			// mirror; the copy path needs no COW protection.
			p.markTraceAliased(len(trace))
		}
		if err := p.state.Rollback(r.ID()); err != nil {
			return fmt.Errorf("%w: transient rollback: %v", ErrInvariant, err)
		}
		eff.Responses = append(eff.Responses, Response{
			Req:          r,
			Value:        value,
			Committed:    false,
			Trace:        trace,
			TraceBase:    p.baseLen,
			CommittedLen: p.absCommitted(),
		})
		p.emit(eff, r.Dot, session, StatusTentative, value)
		if !r.Op.ReadOnly() {
			eff.RBCast = append(eff.RBCast, r)
			eff.TOBCast = append(eff.TOBCast, r)
			p.insertTentative(r)
			// The client may additionally await the stable value
			// (footnote 3); read-only requests are never committed
			// under Algorithm 2, so they have no stable notice.
			p.awaitStable[r.Dot] = &pendingResp{
				session: session, has: true, value: value, trace: trace, traceBase: p.baseLen, committedLen: p.absCommitted(),
			}
		}
		return nil
	}
	p.awaiting[r.Dot] = &pendingResp{session: session}
	eff.TOBCast = append(eff.TOBCast, r)
	return nil
}

// Invocation is one client invocation as the serving replica accepts it.
// The client's session table admits it (record.Recorder.Admit) and freezes
// into it everything the replica needs from the session, so the replica
// never reads the session table: the coverage demands (Read, Write) and
// clock fence of a guarantee-carrying session, and — for a strong read when
// leases are on — the session's lease-read cast gate (CastOK/CastCeil: the
// largest commit position among the session's TOB casts, proven only when
// nothing it cast is still in flight). Freezing is sound because the
// admitted session stays busy until the invocation resolves, and a busy
// session's vectors and casts cannot move.
type Invocation struct {
	Session  SessionID
	Op       spec.Op
	Level    Level
	Read     Vec
	Write    Vec
	Fence    int64
	CastOK   bool
	CastCeil int64
}

// Accept serves an admitted, covered invocation (see Covers): the clock is
// fenced above the session's vectors, so the new request sorts after
// everything they demand even when the session migrated from a replica
// with a faster clock; a strong read-only operation is served locally from
// the committed prefix when the caller holds the ordering lease and the
// cast gate holds at the current committed length, so session order cannot
// expose the read as stale; anything else is invoked (InvokeFrom). holder
// reports whether the caller holds the ordering lease (its committed prefix
// is the global one); it is nil when leases are off, and it is consulted
// only for a strong read-only operation, before the cast gate. leased
// reports a lease read: the response is already in eff and nothing was
// TOB-cast.
func (p *Replica) Accept(inv Invocation, holder func() bool, eff *Effects) (req Req, leased bool, err error) {
	if inv.Fence > p.lastTS {
		p.lastTS = inv.Fence
	}
	if holder != nil && inv.Level == Strong && inv.Op.ReadOnly() && holder() &&
		inv.CastOK && inv.CastCeil <= int64(p.absCommitted()) {
		if req, ok, err := p.strongReadLocal(inv.Session, inv.Op, eff); err != nil || ok {
			return req, ok, err
		}
	}
	req, err = p.InvokeFrom(inv.Session, inv.Op, inv.Level == Strong, eff)
	return req, false, err
}

// strongReadLocal serves a strong read-only operation directly from the
// replica's committed prefix, bypassing total order broadcast — the lease
// fast path of Accept, which has already checked the distributed half of
// the safety argument (the ordering lease and the session's cast gate).
// This method owns the local half: it reports ok=false — Accept falls back
// to the normal TOB path — unless the operation is read-only and the
// replica has fully executed its committed prefix with no rollbacks
// pending.
//
// The committed prefix is rebuilt transiently: the executed tentative
// suffix is rolled back in reverse, the read executes (and rolls back) on
// the committed prefix alone, and the suffix re-executes in order —
// identical values, identical undo trace, so the replica's observable state
// is untouched. O(tentative suffix), which is O(1) on a strong-only
// workload where nothing is tentative.
func (p *Replica) strongReadLocal(session SessionID, op spec.Op, eff *Effects) (Req, bool, error) {
	if !op.ReadOnly() || len(p.toBeRolledBack) > 0 {
		return Req{}, false, nil
	}
	nc := len(p.committed)
	if len(p.executed) < nc {
		return Req{}, false, nil // committed prefix not fully executed yet
	}
	p.currEventNo++
	r := Req{Timestamp: p.now(), Dot: Dot{Replica: p.id, EventNo: p.currEventNo}, Strong: true, Op: op}
	suffix := p.executed[nc:]
	for i := len(suffix) - 1; i >= 0; i-- {
		if err := p.state.Rollback(suffix[i].ID()); err != nil {
			return Req{}, false, fmt.Errorf("%w: lease-read rewind %s: %v", ErrInvariant, suffix[i].ID(), err)
		}
	}
	value, err := p.state.Execute(r.ID(), op)
	if err != nil {
		return Req{}, false, fmt.Errorf("%w: lease-read execute: %v", ErrInvariant, err)
	}
	if err := p.state.Rollback(r.ID()); err != nil {
		return Req{}, false, fmt.Errorf("%w: lease-read rollback: %v", ErrInvariant, err)
	}
	for _, s := range suffix {
		if _, err := p.state.Execute(s.ID(), s.Op); err != nil {
			return Req{}, false, fmt.Errorf("%w: lease-read replay %s: %v", ErrInvariant, s.ID(), err)
		}
	}
	trace := p.traceBuf[:nc:nc]
	p.markTraceAliased(nc)
	eff.Responses = append(eff.Responses, Response{
		Req:          r,
		Value:        value,
		Committed:    true,
		Trace:        trace,
		TraceBase:    p.baseLen,
		CommittedLen: p.absCommitted(),
	})
	p.emit(eff, r.Dot, session, StatusCommitted, value)
	return r, true, nil
}

// RBDeliver handles an RB delivery (Algorithm 1 line 22).
func (p *Replica) RBDeliver(r Req) (Effects, error) {
	var eff Effects
	if err := p.RBDeliverInto(r, &eff); err != nil {
		return Effects{}, err
	}
	return eff, nil
}

// RBDeliverInto handles an RB delivery, appending effects to eff.
//
// The paper's line 23 skips requests "issued locally"; here that skip is
// implemented by the known-request check alone: at invocation the replica
// inserts its own request into tentative (or committed, later), so a
// self-origin delivery is always already known — except after a
// crash–recover, where the volatile tentative list is gone and a resync
// replay legitimately re-teaches the replica its own uncommitted requests.
func (p *Replica) RBDeliverInto(r Req, eff *Effects) error {
	if p.committedSet[r.Dot] || p.tentativeSet[r.Dot] || p.baseContains(r.Dot) {
		return nil // already known (lines 23 and 25; or inside the checkpoint)
	}
	if p.variant == NoCircularCausality && r.Strong {
		// Algorithm 2 disseminates strong requests through TOB only; they
		// never enter a tentative list, so an RB replay of one (a resync
		// echoing a mixed log) is dropped, not scheduled.
		return nil
	}
	if r.Dot.Replica == p.id && r.Dot.EventNo > p.currEventNo {
		return fmt.Errorf("%w: self-origin %s from the future (counter %d)", ErrInvariant, r.ID(), p.currEventNo)
	}
	p.insertTentative(r)
	return nil
}

// RBDeliverBatch handles a batch of RB deliveries in order, appending the
// merged effects to eff. It is equivalent to calling RBDeliverInto for each
// request with no internal steps in between.
func (p *Replica) RBDeliverBatch(rs []Req, eff *Effects) error {
	for _, r := range rs {
		if err := p.RBDeliverInto(r, eff); err != nil {
			return err
		}
	}
	return nil
}

// TOBDeliver handles a TOB delivery (Algorithm 1 line 27): the request's
// final position is appended to committed; a stored tentative response for a
// strong request already executed in the right order is released.
func (p *Replica) TOBDeliver(r Req) (Effects, error) {
	var eff Effects
	if err := p.TOBDeliverInto(r, &eff); err != nil {
		return Effects{}, err
	}
	return eff, nil
}

// TOBDeliverInto handles a TOB delivery, appending effects to eff.
func (p *Replica) TOBDeliverInto(r Req, eff *Effects) error {
	if p.committedSet[r.Dot] || p.baseContains(r.Dot) {
		return fmt.Errorf("%w: duplicate TOB delivery of %s", ErrInvariant, r.ID())
	}
	c := len(p.committed)
	p.committed = append(p.committed, r)
	p.committedSet[r.Dot] = true
	if p.tentativeSet[r.Dot] {
		delete(p.tentativeSet, r.Dot)
		switch j := p.tentativeIndex(r); {
		case j < 0:
			return fmt.Errorf("%w: %s in tentativeSet but not on the tentative list", ErrInvariant, r.ID())
		case j == 0:
			// The commit confirms the tentative head: the schedule
			// committed · tentative is unchanged, the request merely
			// crosses the boundary. O(1).
			p.tentative = p.tentative[1:]
		default:
			// The request moves from schedule position c+j to c.
			copy(p.tentative[j:], p.tentative[j+1:])
			p.tentative = p.tentative[:len(p.tentative)-1]
			p.editSchedule(c, r, c+j)
		}
	} else {
		// A request committed before it was RB-delivered here: it enters
		// the schedule at the commit position, pushing all tentative
		// requests one slot right.
		p.editSchedule(c, r, -1)
	}

	if pr, ok := p.awaiting[r.Dot]; ok && p.executedSet[r.Dot] {
		if !pr.has {
			return fmt.Errorf("%w: %s executed but no stored response", ErrInvariant, r.ID())
		}
		eff.Responses = append(eff.Responses, Response{
			Req:          r,
			Value:        pr.value,
			Committed:    true,
			Trace:        pr.trace,
			TraceBase:    pr.traceBase,
			CommittedLen: pr.committedLen,
		})
		p.emit(eff, r.Dot, pr.session, StatusCommitted, pr.value)
		p.markStoredTraceAliased(pr)
		delete(p.awaiting, r.Dot)
	}
	// A weak request already executed in the (now final) right order: its
	// stored value is stable, release the notice (the weak analogue of
	// Algorithm 1 line 32).
	if pr, ok := p.awaitStable[r.Dot]; ok && p.executedSet[r.Dot] && pr.has {
		eff.StableNotices = append(eff.StableNotices, Response{
			Req:          r,
			Value:        pr.value,
			Committed:    true,
			Trace:        pr.trace,
			TraceBase:    pr.traceBase,
			CommittedLen: pr.committedLen,
		})
		p.emit(eff, r.Dot, pr.session, StatusCommitted, pr.value)
		p.markStoredTraceAliased(pr)
		delete(p.awaitStable, r.Dot)
	}
	return nil
}

// TOBDeliverBatch handles a batch of TOB deliveries in order, appending the
// merged effects to eff. It is equivalent to calling TOBDeliverInto for each
// request with no internal steps in between — the shape a consensus layer
// produces when one decision unblocks a run of buffered successors.
func (p *Replica) TOBDeliverBatch(rs []Req, eff *Effects) error {
	for _, r := range rs {
		if err := p.TOBDeliverInto(r, eff); err != nil {
			return err
		}
	}
	return nil
}

// insertTentative inserts r into the timestamp-sorted tentative list and
// patches the execution schedule at the insertion point (Algorithm 1 line
// 16, made incremental).
func (p *Replica) insertTentative(r Req) {
	i := sort.Search(len(p.tentative), func(k int) bool { return !p.tentative[k].Less(r) })
	p.tentative = append(p.tentative, Req{})
	copy(p.tentative[i+1:], p.tentative[i:])
	p.tentative[i] = r
	p.tentativeSet[r.Dot] = true
	p.editSchedule(len(p.committed)+i, r, -1)
}

// tentativeIndex locates r in the sorted tentative list.
func (p *Replica) tentativeIndex(r Req) int {
	j := sort.Search(len(p.tentative), func(k int) bool { return !p.tentative[k].Less(r) })
	if j < len(p.tentative) && p.tentative[j].Dot == r.Dot {
		return j
	}
	// Defensive: the list is sorted by construction, but fall back to a
	// scan rather than corrupt the schedule if it ever is not.
	for k := range p.tentative {
		if p.tentative[k].Dot == r.Dot {
			return k
		}
	}
	return -1
}

// editSchedule applies one edit to the schedule committed · tentative:
// r enters at position d; if srcPos ≥ 0, r previously sat at schedule
// position srcPos (> d) and has already been removed from the tentative
// list (a move, i.e. a commit out of tentative order). Executed entries at
// positions ≥ d are rolled back and the execution plan is patched in
// O(len(schedule) − d) — the seed of Algorithm 1's "adjust execution",
// restricted to the affected suffix.
func (p *Replica) editSchedule(d int, r Req, srcPos int) {
	ne := len(p.executed)
	if d >= ne {
		// The edit lands beyond the executed prefix: no rollback, patch
		// the plan in place.
		k := d - ne
		plan := p.tbeBuf[p.tbeHead:]
		if srcPos >= 0 {
			// Move within the plan: rotate [k, srcK] one right.
			srcK := srcPos - ne
			copy(plan[k+1:srcK+1], plan[k:srcK])
			plan[k] = r
			return
		}
		if k == 0 && p.tbeHead > 0 {
			// O(1) front insert into the consumed gap.
			p.tbeHead--
			p.tbeBuf[p.tbeHead] = r
			return
		}
		p.tbeBuf = append(p.tbeBuf, Req{})
		plan = p.tbeBuf[p.tbeHead:]
		copy(plan[k+1:], plan[k:])
		plan[k] = r
		return
	}

	// Roll back the executed suffix from d, in reverse execution order
	// (Algorithm 1 line 41's queue discipline: later rollbacks append
	// after pending ones, matching the state object's undo stack).
	rolled := p.executed[d:]
	for i := len(rolled) - 1; i >= 0; i-- {
		p.toBeRolledBack = append(p.toBeRolledBack, rolled[i])
		delete(p.executedSet, rolled[i].Dot)
	}

	// New plan suffix: r, then the old suffix (rolled-back entries
	// followed by the old plan) minus r when this is a move.
	if srcPos < 0 && p.tbeHead > len(rolled) {
		// The consumed gap fits r and the rolled-back entries: prepend
		// in place without touching the rest of the plan.
		h := p.tbeHead - len(rolled) - 1
		p.tbeBuf[h] = r
		copy(p.tbeBuf[h+1:p.tbeHead], rolled)
		p.tbeHead = h
	} else {
		plan := p.tbeBuf[p.tbeHead:]
		buf := p.tbeSpare[:0]
		buf = append(buf, r)
		switch {
		case srcPos < 0:
			buf = append(buf, rolled...)
			buf = append(buf, plan...)
		case srcPos < ne: // r was executed: it sits inside rolled
			off := srcPos - d
			buf = append(buf, rolled[:off]...)
			buf = append(buf, rolled[off+1:]...)
			buf = append(buf, plan...)
		default: // r was planned but not executed
			srcK := srcPos - ne
			buf = append(buf, rolled...)
			buf = append(buf, plan[:srcK]...)
			buf = append(buf, plan[srcK+1:]...)
		}
		p.tbeSpare = p.tbeBuf[:0]
		p.tbeBuf = buf
		p.tbeHead = 0
	}
	p.truncateExecuted(d)
}

// truncateExecuted cuts executed (and its trace mirror) to length d. If a
// client response aliases the trace beyond d, the surviving prefix is copied
// out first so the issued trace stays immutable.
func (p *Replica) truncateExecuted(d int) {
	p.executed = p.executed[:d]
	if d < p.traceAliasedLen {
		fresh := make([]Dot, d, d+8)
		copy(fresh, p.traceBuf[:d])
		p.traceBuf = fresh
		p.traceAliasedLen = 0
	} else {
		p.traceBuf = p.traceBuf[:d]
	}
}

// HasInternalWork reports whether an internal event (rollback or execute) is
// enabled. A replica with no internal work is passive (§5 input-driven
// processing).
func (p *Replica) HasInternalWork() bool {
	return len(p.toBeRolledBack) > 0 || p.tbeHead < len(p.tbeBuf)
}

// Step executes exactly one enabled internal event: a rollback if any is
// pending (Algorithm 1 line 41), otherwise one execution (line 45). Calling
// Step on a passive replica is a no-op.
func (p *Replica) Step() (Effects, error) {
	var eff Effects
	if err := p.StepInto(&eff); err != nil {
		return Effects{}, err
	}
	return eff, nil
}

// StepInto executes one internal event, appending effects to eff.
func (p *Replica) StepInto(eff *Effects) error {
	p.steps++
	if len(p.toBeRolledBack) > 0 {
		head := p.toBeRolledBack[0]
		p.toBeRolledBack = p.toBeRolledBack[1:]
		if err := p.state.Rollback(head.ID()); err != nil {
			return fmt.Errorf("%w: rollback %s: %v", ErrInvariant, head.ID(), err)
		}
		return nil
	}
	if p.tbeHead == len(p.tbeBuf) {
		return nil
	}
	head := p.tbeBuf[p.tbeHead]
	p.tbeHead++
	if p.tbeHead == len(p.tbeBuf) {
		// Plan drained: rewind so the full capacity is reusable.
		p.tbeBuf = p.tbeBuf[:0]
		p.tbeHead = 0
	}
	prA, okA := p.awaiting[head.Dot]
	var prS *pendingResp
	var okS bool
	if !okA {
		prS, okS = p.awaitStable[head.Dot]
	}
	// The trace is only needed when somebody awaits this request; skipping
	// it otherwise keeps re-executions of remote requests trace-free.
	var trace []Dot
	if okA || okS {
		trace = p.currentTrace()
	}
	value, err := p.state.Execute(head.ID(), head.Op)
	if err != nil {
		return fmt.Errorf("%w: execute %s: %v", ErrInvariant, head.ID(), err)
	}
	if okA {
		if !head.Strong || p.committedSet[head.Dot] {
			committed := p.committedSet[head.Dot]
			eff.Responses = append(eff.Responses, Response{
				Req:          head,
				Value:        value,
				Committed:    committed,
				Trace:        trace,
				TraceBase:    p.baseLen,
				CommittedLen: p.absCommitted(),
			})
			if committed {
				p.emit(eff, head.Dot, prA.session, StatusCommitted, value)
			} else {
				p.emit(eff, head.Dot, prA.session, StatusTentative, value)
			}
			p.markTraceAliased(len(trace))
			delete(p.awaiting, head.Dot)
			if !head.Strong && !committed {
				// The tentative weak response went out; keep
				// tracking it so the stable value can be
				// notified later (footnote 3).
				p.awaitStable[head.Dot] = &pendingResp{
					session: prA.session, has: true, value: value, trace: trace, traceBase: p.baseLen, committedLen: p.absCommitted(),
				}
			}
		} else {
			prA.has = true
			prA.value = value
			prA.trace = trace
			prA.traceBase = p.baseLen
			prA.committedLen = p.absCommitted()
		}
	} else if okS {
		if p.committedSet[head.Dot] {
			eff.StableNotices = append(eff.StableNotices, Response{
				Req:          head,
				Value:        value,
				Committed:    true,
				Trace:        trace,
				TraceBase:    p.baseLen,
				CommittedLen: p.absCommitted(),
			})
			p.emit(eff, head.Dot, prS.session, StatusCommitted, value)
			p.markTraceAliased(len(trace))
			delete(p.awaitStable, head.Dot)
		} else {
			// Re-executed tentatively: remember the latest value for
			// the TOB-delivery release path. When the recomputed value
			// differs from the one the client holds, the response has
			// fluctuated — the StatusReordered event is the observable
			// form of the "temporary" in temporary operation
			// reordering. (Re-executions that reproduce the same value,
			// such as Algorithm 2's first scheduled execution on an
			// unchanged state, are invisible to the client and emit
			// nothing.)
			if p.transitions && prS.has && !spec.Equal(prS.value, value) {
				p.emit(eff, head.Dot, prS.session, StatusReordered, value)
			}
			prS.has = true
			prS.value = value
			prS.trace = trace
			prS.traceBase = p.baseLen
			prS.committedLen = p.absCommitted()
		}
	}
	p.executed = append(p.executed, head)
	p.traceBuf = append(p.traceBuf, head.Dot)
	p.executedSet[head.Dot] = true
	return nil
}

// StepN executes up to limit enabled internal events, appending the merged
// effects to eff; it returns the number of events executed. Unlike Step, it
// does not count activations on a passive replica.
func (p *Replica) StepN(limit int, eff *Effects) (int, error) {
	done := 0
	for done < limit && p.HasInternalWork() {
		if err := p.StepInto(eff); err != nil {
			return done, err
		}
		done++
	}
	return done, nil
}

// Drain runs internal events until the replica is passive, merging effects.
func (p *Replica) Drain() (Effects, error) {
	var eff Effects
	if _, err := p.DrainInto(&eff); err != nil {
		return eff, err
	}
	return eff, nil
}

// DrainInto runs internal events until the replica is passive, appending the
// merged effects to eff; it returns the number of events executed.
func (p *Replica) DrainInto(eff *Effects) (int, error) {
	done := 0
	for p.HasInternalWork() {
		if err := p.StepInto(eff); err != nil {
			return done, err
		}
		done++
	}
	return done, nil
}

// Compact releases the undo entries of the stable prefix — the executed
// requests that are already committed. That prefix can never be rolled back
// (committed is append-only, and the schedule edit position never precedes
// the committed prefix), so this is the original Bayou's log truncation. It
// returns the number of undo entries released.
func (p *Replica) Compact() int {
	stable := len(p.executed)
	if len(p.committed) < stable {
		stable = len(p.committed)
	}
	return p.state.Release(stable)
}

// LiveUndoEntries reports how many executed requests still hold undo data.
func (p *Replica) LiveUndoEntries() int { return p.state.LiveUndoEntries() }

// currentTrace returns the current trace of the state object as dots:
// executed · reverse(toBeRolledBack) (Appendix A.2.2). In the common
// no-rollback case it aliases the replica's trace mirror without copying;
// the returned slice must be treated as immutable by callers (the engine
// copy-on-writes it if a later rollback would overwrite it).
func (p *Replica) currentTrace() []Dot {
	if len(p.toBeRolledBack) == 0 {
		n := len(p.executed)
		return p.traceBuf[:n:n]
	}
	out := make([]Dot, 0, len(p.executed)+len(p.toBeRolledBack))
	out = append(out, p.traceBuf[:len(p.executed)]...)
	for i := len(p.toBeRolledBack) - 1; i >= 0; i-- {
		out = append(out, p.toBeRolledBack[i].Dot)
	}
	return out
}

// markTraceAliased records that a trace prefix of length n may now be held
// outside the replica (it escaped in a Response), so truncations below n
// must copy-on-write the trace mirror. Traces stored only in pendingResp
// entries are not marked: a rollback past their request clears executedSet,
// which gates every release path, and the re-execution overwrites the entry
// before it can be read again.
func (p *Replica) markTraceAliased(n int) {
	if n > p.traceAliasedLen {
		p.traceAliasedLen = n
	}
}

// markStoredTraceAliased marks a stored continuation trace as escaped. A
// trace captured before a checkpoint aliases a retired mirror array (the
// checkpoint copied the suffix into a fresh one), so only captures from the
// current base epoch need COW protection.
func (p *Replica) markStoredTraceAliased(pr *pendingResp) {
	if pr.traceBase == p.baseLen {
		p.markTraceAliased(len(pr.trace))
	}
}

// CoversRead reports whether the replica's *executed* state dominates the
// vector: the committed watermark is applied (and executed — executed is a
// prefix of committed·tentative, so a watermark's worth of executed entries
// is exactly the committed prefix) and every frontier dot is currently
// executed. A weak invocation accepted while CoversRead holds computes its
// response on a trace containing every demanded dot; entries pending
// rollback do not count, because they are about to leave the state.
func (p *Replica) CoversRead(v Vec) bool {
	if p.absCommitted() < v.CommitLen || p.absExecuted() < v.CommitLen {
		return false
	}
	for _, d := range v.Frontier {
		if !p.executedSet[d] && !p.baseContains(d) {
			return false
		}
	}
	return true
}

// CoversCommitted reports whether the replica's committed prefix dominates
// the vector. Strong invocations demand it: a strong response is computed
// at the request's commit position, on exactly the committed prefix before
// it, so only dots already inside that prefix are guaranteed visible.
func (p *Replica) CoversCommitted(v Vec) bool {
	if p.absCommitted() < v.CommitLen {
		return false
	}
	for _, d := range v.Frontier {
		if !p.committedSet[d] && !p.baseContains(d) {
			return false
		}
	}
	return true
}

// CoversWrite reports whether the replica can accept a new updating request
// ordered after everything the vector demands: every demanded dot must be
// committed here. Only the shared committed prefix orders a fresh proposal
// globally — a new request is necessarily arbitrated after it, everywhere.
// A demanded dot that is merely tentative does not qualify, even a local
// one: total order broadcast does not promise per-proposer FIFO under
// faults (a partition can strand one proposal in a consensus pool while a
// later one decides first), so nothing orders the fresh request behind an
// in-flight predecessor.
func (p *Replica) CoversWrite(v Vec) bool {
	return p.CoversCommitted(v)
}

// Covers is the invocation coverage gate, shared by both drivers: it
// reports whether the replica can accept the invocation given the demand
// vectors its session froze at admission. Algorithm 2 weak operations
// compute their response inside the invoke, so executed-state read
// coverage suffices; strong operations — and every Algorithm 1 operation,
// whose response may be computed at the commit position the commit order
// pre-empts — demand the committed prefix. Updating operations additionally
// demand write coverage so arbitration orders them after the session's
// past. A plain session's invocation carries empty vectors and is always
// covered.
func (p *Replica) Covers(inv Invocation) bool {
	if inv.Level == Strong || p.variant == Original {
		if !p.CoversCommitted(inv.Read) {
			return false
		}
	} else if !p.CoversRead(inv.Read) {
		return false
	}
	return inv.Op.ReadOnly() || p.CoversWrite(inv.Write)
}

// CoversSession is the conservative session probe behind the drivers'
// coverage query: whether the replica could serve *any* next operation of
// a session with these demands, including a strong one. It deliberately
// uses the strongest read predicate (the committed prefix), so a replica
// it approves is never rejected by the per-invocation gate.
func (p *Replica) CoversSession(read, write Vec) bool {
	return p.CoversCommitted(read) && p.CoversWrite(write)
}

// Committed returns a copy of the resident committed list — the suffix past
// the checkpoint (the whole log when the replica never checkpointed; the
// entry at index i sits at absolute commit position BaseLen()+i+1).
func (p *Replica) Committed() []Req { return append([]Req(nil), p.committed...) }

// Tentative returns a copy of the tentative list.
func (p *Replica) Tentative() []Req { return append([]Req(nil), p.tentative...) }

// CurrentOrder returns the resident committed suffix · tentative — the order
// the replica is converging to, past the checkpoint.
func (p *Replica) CurrentOrder() []Req {
	out := make([]Req, 0, len(p.committed)+len(p.tentative))
	out = append(out, p.committed...)
	out = append(out, p.tentative...)
	return out
}

// CommittedLen returns the absolute |committed| (checkpointed prefix
// included).
func (p *Replica) CommittedLen() int { return p.absCommitted() }

// PendingResponses returns the dots of requests whose clients still await a
// response (pending events of the history; in asynchronous runs strong
// requests pend forever, the crux of Theorem 3).
func (p *Replica) PendingResponses() []Dot {
	out := make([]Dot, 0, len(p.awaiting))
	for d := range p.awaiting {
		out = append(out, d)
	}
	slices.SortFunc(out, Dot.cmp)
	return out
}

// Read peeks at a register of the replica's current state (diagnostics and
// examples; not part of the protocol).
func (p *Replica) Read(id string) spec.Value { return p.state.Read(id) }

// Stats bundles the replica's cost counters.
type Stats struct {
	Steps     int64 // internal events executed
	Executes  int64 // state executions (including re-executions)
	Rollbacks int64 // state rollbacks
	Backlog   int   // current |toBeExecuted| + |toBeRolledBack|
}

// Stats returns current counters.
func (p *Replica) Stats() Stats {
	st := p.state.Stats()
	return Stats{
		Steps:     p.steps,
		Executes:  st.Executes,
		Rollbacks: st.Rollbacks,
		Backlog:   len(p.tbeBuf) - p.tbeHead + len(p.toBeRolledBack),
	}
}

// CheckInvariants validates the replica's internal consistency; property
// tests call it after every transition. It returns nil when all invariants
// hold.
func (p *Replica) CheckInvariants() error {
	// 0. the checkpoint anchor is internally consistent.
	if p.base == nil && p.baseLen != 0 {
		return fmt.Errorf("%w: baseLen %d without a checkpoint record", ErrInvariant, p.baseLen)
	}
	if p.base != nil && p.base.BaseLen != p.baseLen {
		return fmt.Errorf("%w: baseLen %d, record covers %d", ErrInvariant, p.baseLen, p.base.BaseLen)
	}
	// 1. committed and tentative are disjoint; tentative is sorted.
	for _, r := range p.tentative {
		if p.committedSet[r.Dot] || p.baseContains(r.Dot) {
			return fmt.Errorf("%w: %s in both committed and tentative", ErrInvariant, r.ID())
		}
	}
	for i := 1; i < len(p.tentative); i++ {
		if !p.tentative[i-1].Less(p.tentative[i]) {
			return fmt.Errorf("%w: tentative not sorted at %d", ErrInvariant, i)
		}
	}
	// 2. executed · toBeExecuted is exactly committed · tentative — the
	//    engine's structural invariant (it implies the seed invariant that
	//    executed is a prefix of the order).
	order := p.CurrentOrder()
	plan := p.tbeBuf[p.tbeHead:]
	if len(p.executed)+len(plan) != len(order) {
		return fmt.Errorf("%w: |executed|+|toBeExecuted| = %d+%d, order %d",
			ErrInvariant, len(p.executed), len(plan), len(order))
	}
	for i, r := range p.executed {
		if order[i].Dot != r.Dot {
			return fmt.Errorf("%w: executed[%d]=%s is not order[%d]=%s", ErrInvariant, i, r.ID(), i, order[i].ID())
		}
	}
	for i, r := range plan {
		j := len(p.executed) + i
		if order[j].Dot != r.Dot {
			return fmt.Errorf("%w: toBeExecuted[%d]=%s misaligned", ErrInvariant, i, r.ID())
		}
	}
	// 3. the trace mirror matches executed.
	if len(p.traceBuf) != len(p.executed) {
		return fmt.Errorf("%w: trace mirror length %d, executed %d", ErrInvariant, len(p.traceBuf), len(p.executed))
	}
	for i, r := range p.executed {
		if p.traceBuf[i] != r.Dot {
			return fmt.Errorf("%w: trace mirror[%d]=%s, executed %s", ErrInvariant, i, p.traceBuf[i], r.Dot)
		}
	}
	// 4. the state object's trace equals executed · reverse(toBeRolledBack).
	want := make([]Dot, 0, len(p.executed)+len(p.toBeRolledBack))
	for _, r := range p.executed {
		want = append(want, r.Dot)
	}
	for i := len(p.toBeRolledBack) - 1; i >= 0; i-- {
		want = append(want, p.toBeRolledBack[i].Dot)
	}
	got := p.state.Trace()
	if len(got) != len(want) {
		return fmt.Errorf("%w: state trace length %d, replica trace length %d", ErrInvariant, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].String() {
			return fmt.Errorf("%w: state trace[%d]=%s, replica trace %s", ErrInvariant, i, got[i], want[i])
		}
	}
	return nil
}
