// Package record is the driver-neutral observation layer of the deployment:
// it accumulates the observable history of a run (events keyed by *session*,
// exactly the ß equivalence classes of §3.2) together with the run witnesses
// the checkers consume, and it owns the client-facing Call handle with its
// response-status subscription stream.
//
// Both deployment drivers — the deterministic simulator (internal/cluster)
// and the goroutine-per-replica live driver (internal/livenet) — feed the
// same Recorder, which is what makes histories, checker verdicts and watch
// streams comparable across substrates. The Recorder and Call are safe for
// concurrent use; the single-threaded simulator pays only uncontended locks.
package record

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"bayou/internal/core"
	"bayou/internal/history"
	"bayou/internal/spec"
)

// ErrSessionBusy reports an invocation on a session whose previous operation
// has not yet returned. Well-formed histories (§3.2) require sessions to be
// sequential: a client blocked on a strong operation cannot issue more work.
var ErrSessionBusy = errors.New("record: session awaiting a response")

// ErrGuarantee reports an invocation rejected under GuaranteeMode FailFast:
// the serving replica cannot yet cover the session's guarantee vectors.
var ErrGuarantee = errors.New("record: session guarantee not yet satisfiable at this replica")

// ErrUnknownSession reports a session id the table never minted.
var ErrUnknownSession = errors.New("record: unknown session")

// Update is one response-status event delivered on a watch stream: the
// status the call's response transitioned to, the response value at that
// moment, and the driver's wall time of the transition.
type Update struct {
	Status core.Status
	Value  spec.Value
	Wall   int64
}

// Call is a client's handle on one invocation. It fills in as the deployment
// makes progress: Done/Response when the (tentative or stable) response
// arrives, Stable when a weak update's final value is notified (footnote 3
// of the paper), and Updates streams every status transition in between —
// the observable fluctuation that FEC formalizes.
type Call struct {
	dot     core.Dot
	session core.SessionID
	op      spec.Op
	level   core.Level
	tobCast bool

	// Frozen demand-vector witnesses (Admit): the coverage the serving
	// replica enforces for this invocation, captured at admission while the
	// session's busy mark already held the vectors still. CompleteInvoke
	// attaches these to the history event, so the Coverage checker verifies
	// exactly what was enforced — re-deriving the demand at acceptance could
	// compact a frontier dot into a committed watermark the replica never
	// checked (a commit landing between admission and acceptance) and
	// report a phantom violation.
	frozenRead  core.Vec
	frozenWrite core.Vec

	mu         sync.Mutex
	done       bool          // guarded by mu
	lost       bool          // guarded by mu
	resp       core.Response // guarded by mu
	wallInvoke int64         // guarded by mu
	wallReturn int64         // guarded by mu
	stableDone bool          // guarded by mu
	stableResp core.Response // guarded by mu
	wallStable int64         // guarded by mu
	terminal   bool          // guarded by mu
	doneCh     chan struct{} // set at construction; closed under mu, received lock-free
	termCh     chan struct{} // set at construction; closed under mu, received lock-free
	log        []Update      // guarded by mu
	subs       []*sub        // guarded by mu
}

// Dot returns the request identifier (the zero Dot while the invocation is
// still parked on a coverage gate — the dot is minted when the serving
// replica accepts it).
func (c *Call) Dot() core.Dot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dot
}

// Session returns the issuing session.
func (c *Call) Session() core.SessionID { return c.session }

// Op returns the invoked operation.
func (c *Call) Op() spec.Op { return c.op }

// Level returns the invocation's consistency level.
func (c *Call) Level() core.Level { return c.level }

// Done reports whether the call has completed — with a response, or as a
// lost result (see Lost).
func (c *Call) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// Lost reports whether the call completed as a lost result: the operation
// committed — it is part of the final order and of every replica's state —
// but its return value was never computed, because the invoked replica was
// down when the commit happened and caught up by checkpoint state transfer
// instead of per-slot replay. Response() stays zero on a lost call.
func (c *Call) Lost() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost
}

// Response returns the response (the zero Response while !Done). For weak
// operations this is the first, tentative value; Stable carries the final
// one once established.
func (c *Call) Response() core.Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resp
}

// Value is shorthand for Response().Value.
func (c *Call) Value() spec.Value { return c.Response().Value }

// Stable returns the stable (committed-order) response and whether it has
// arrived. For strong operations the first response is already stable;
// for weak updating operations it is the optional notification of the
// original Bayou; weak read-only operations never stabilize.
func (c *Call) Stable() (core.Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stableDone {
		return c.stableResp, true
	}
	if c.done && c.resp.Committed {
		return c.resp, true
	}
	return core.Response{}, false
}

// Aborted reports whether the call is a transaction that reached its fixed
// (committed-order) position with a failed precondition: the stable value
// is the spec abort marker and the unit wrote nothing. While only a
// tentative value has aborted this still reports false — a rebase may yet
// move the txn before the conflicting op and commit it successfully, and
// vice versa. Lost calls report false: their value was never computed.
func (c *Call) Aborted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lost {
		return false
	}
	if c.stableDone {
		return spec.IsAborted(c.stableResp.Value)
	}
	return c.done && c.resp.Committed && spec.IsAborted(c.resp.Value)
}

// WallInvoke returns the driver wall time of the invocation.
func (c *Call) WallInvoke() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wallInvoke
}

// WallReturn returns the driver wall time of the response (0 while pending).
func (c *Call) WallReturn() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wallReturn
}

// WallStable returns the driver wall time of the stable notice (0 if none).
func (c *Call) WallStable() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wallStable
}

// Terminal reports whether the call can produce no further updates: its
// response is committed (or it never entered consensus and has returned).
func (c *Call) Terminal() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.terminal
}

// Fluctuations returns a snapshot of every status transition recorded so
// far, in order. On a terminal call this is the complete lifecycle.
func (c *Call) Fluctuations() []Update {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Update(nil), c.log...)
}

// WaitDone blocks until the response arrives or ctx is cancelled. It is the
// waiting primitive of drivers that make progress in the background; on the
// deterministic simulator nothing advances while the caller blocks, so the
// façade routes Wait through the driver instead.
func (c *Call) WaitDone(ctx context.Context) error {
	select {
	case <-c.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WaitTerminal blocks until the call is terminal or ctx is cancelled.
func (c *Call) WaitTerminal(ctx context.Context) error {
	select {
	case <-c.termCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Updates subscribes to the call's status transitions. Every transition
// recorded so far is replayed first, then live ones are delivered in order;
// the channel is closed once the call is terminal and all updates have been
// consumed. The stream is lossless — a slow consumer buffers, it does not
// drop — so the consumer must either drain the channel or the call must
// reach a terminal status, or the feeding goroutine is retained.
func (c *Call) Updates() <-chan Update {
	c.mu.Lock()
	s := &sub{notify: make(chan struct{}, 1), buf: append([]Update(nil), c.log...), done: c.terminal}
	if !c.terminal {
		c.subs = append(c.subs, s)
	}
	c.mu.Unlock()

	out := make(chan Update)
	go func() {
		defer close(out)
		for {
			s.mu.Lock()
			batch := s.buf
			s.buf = nil
			done := s.done
			s.mu.Unlock()
			for _, u := range batch {
				out <- u
			}
			if done {
				s.mu.Lock()
				more := len(s.buf) > 0
				s.mu.Unlock()
				if !more {
					return
				}
				continue
			}
			<-s.notify
		}
	}()
	return out
}

// sub is one Updates subscription: an unbounded buffer plus a wake-up edge.
type sub struct {
	mu     sync.Mutex
	buf    []Update // guarded by mu
	done   bool     // guarded by mu
	notify chan struct{}
}

func (s *sub) push(u Update) {
	s.mu.Lock()
	s.buf = append(s.buf, u)
	s.mu.Unlock()
	s.wake()
}

func (s *sub) finish() {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	s.wake()
}

func (s *sub) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// bind stamps a pending call with its minted dot (see CompleteInvoke).
func (c *Call) bind(d core.Dot, tobCast bool, wall int64) {
	c.mu.Lock()
	c.dot = d
	c.tobCast = tobCast
	c.wallInvoke = wall
	c.mu.Unlock()
}

// respond delivers the call's response.
func (c *Call) respond(resp core.Response, wall int64) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	c.done = true
	c.resp = resp
	c.wallReturn = wall
	close(c.doneCh)
	// A committed response is final; a response that never entered TOB
	// (weak read-only under Algorithm 2) can never change either.
	if resp.Committed || !c.tobCast {
		c.setTerminalLocked()
	}
	c.mu.Unlock()
}

// stable delivers the stable notice of a weak updating operation.
func (c *Call) stable(resp core.Response, wall int64) {
	c.mu.Lock()
	if c.stableDone {
		c.mu.Unlock()
		return
	}
	c.stableDone = true
	c.stableResp = resp
	c.wallStable = wall
	c.setTerminalLocked()
	c.mu.Unlock()
}

// loseResult completes the call as a lost result (see Lost): the client
// unblocks and the call is terminal. A call that already returned a
// tentative value keeps it — what was lost then is only the stable notice.
func (c *Call) loseResult(wall int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.terminal {
		return
	}
	c.lost = true
	if !c.done {
		c.done = true
		c.wallReturn = wall
		close(c.doneCh)
	}
	c.setTerminalLocked()
}

// transition records a status update and fans it out to subscribers.
func (c *Call) transition(u Update) {
	c.mu.Lock()
	if c.terminal {
		c.mu.Unlock()
		return
	}
	c.log = append(c.log, u)
	subs := c.subs
	c.mu.Unlock()
	for _, s := range subs {
		s.push(u)
	}
}

// setTerminalLocked marks the call terminal and releases subscribers; the
// caller holds c.mu.
func (c *Call) setTerminalLocked() {
	if c.terminal {
		return
	}
	c.terminal = true
	close(c.termCh)
	for _, s := range c.subs {
		s.finish()
	}
	c.subs = nil
}

// Recorder accumulates the observable history and the run witnesses while a
// deployment executes. Invocation and response instants are stamped with a
// global logical sequence so that the rb relation is unambiguous even when
// several events share a driver instant.
type Recorder struct {
	mu       sync.Mutex
	seq      int64                       // guarded by mu
	stableAt int64                       // guarded by mu
	calls    map[core.Dot]*Call          // guarded by mu
	callList []*Call                     // guarded by mu
	events   map[core.Dot]*history.Event // guarded by mu
	order    []core.Dot                  // guarded by mu
	tobNos   map[core.Dot]int64          // guarded by mu
	tobCast  int                         // guarded by mu

	// commitOrder indexes the shared committed prefix by TOB position
	// (commitOrder[i] committed at position i+1): every delivery lands here
	// before any response that could reference it, so a truncated response
	// trace — suffix plus an implicit prefix of TraceBase commits — can be
	// reconstructed exactly. commitMaxTS[i] is the running maximum
	// timestamp of the updating operations among the first i+1 commits (the
	// clock-fence part of absorbing a committed prefix into a read vector
	// in O(1)).
	commitOrder []core.Dot // guarded by mu
	commitMaxTS []int64    // guarded by mu

	// lost marks invocations completed as lost results: committed while
	// their replica was down and skipped by checkpoint state transfer, so
	// no response value exists. The history event stays pending (formally
	// the response never arrived) but the session is released.
	lost map[core.Dot]bool // guarded by mu

	// The session-guarantee table: read/write vectors ride here — on the
	// shared observation layer, not on Req — so both drivers enforce the
	// same coverage demands and a migrating session carries its vectors
	// with it for free.
	guar map[core.SessionID]*guarSession // guarded by mu

	// sessions is the session registry: a session is a sequential client
	// (§3.2) and replicas know nothing of it, so the one table lives here,
	// on the client side of every substrate. Ids are minted densely — a
	// session is known iff it indexes sessions.
	sessions []sessionSlot // guarded by mu

	// leaseTrack, when non-nil (EnableLeaseTracking), counts each session's
	// TOB-cast operations that have not yet been delivered, and the largest
	// delivery position among those that have — the serve gate for lease
	// reads: a local strong read at committed length L is session-safe iff
	// the session has nothing in flight and everything it cast sits at or
	// below L. Nil when leases are off, so the weak hot path pays nothing.
	leaseTrack map[core.SessionID]*leaseSess // guarded by mu
}

// sessionSlot is one session's row of the registry.
type sessionSlot struct {
	// replica is the replica the session currently invokes at by default.
	replica int
	// pending is the admitted invocation no replica has accepted yet (its
	// dot is unminted: queued, or parked on a coverage gate).
	pending *Call
	// last is the event of the session's latest accepted invocation.
	last *history.Event
}

// leaseSess is one session's lease-gate state (see leaseTrack).
type leaseSess struct {
	castPending int
	maxCommit   int64
}

// guarSession is one guarantee-carrying session's state.
type guarSession struct {
	g    core.Guarantee
	mode core.GuaranteeMode
	// read accumulates the updating dots the session has observed in its
	// response traces (consumed by MonotonicReads and WritesFollowReads).
	read core.Vec
	// write accumulates the dots of the session's own updating operations
	// (consumed by ReadYourWrites and MonotonicWrites).
	write core.Vec
}

// New returns an empty recorder for a deployment of n replicas. Sessions
// 0..n-1 are pre-opened as one default session per replica (session i bound
// to replica i); OpenSession mints fresh ids from n on.
func New(n int) *Recorder {
	sessions := make([]sessionSlot, n)
	for i := range sessions {
		sessions[i].replica = i
	}
	return &Recorder{
		sessions: sessions,
		calls:    make(map[core.Dot]*Call),
		events:   make(map[core.Dot]*history.Event),
		tobNos:   make(map[core.Dot]int64),
		guar:     make(map[core.SessionID]*guarSession),
		lost:     make(map[core.Dot]bool),
	}
}

// EnableLeaseTracking switches on the per-session cast/commit bookkeeping
// the lease-read serve gate needs (Admit proves the gate into each strong
// read's invocation). Drivers call it once, at construction, iff leases
// are enabled — with it off, every recording path skips the tracking
// entirely.
func (r *Recorder) EnableLeaseTracking() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.leaseTrack == nil {
		r.leaseTrack = make(map[core.SessionID]*leaseSess)
	}
}

// trackCastLocked counts a session's newly cast operation (lease gate).
func (r *Recorder) trackCastLocked(session core.SessionID) {
	if r.leaseTrack == nil {
		return
	}
	ls := r.leaseTrack[session]
	if ls == nil {
		ls = &leaseSess{}
		r.leaseTrack[session] = ls
	}
	ls.castPending++
}

// LeaseServed marks the event of an already-recorded invocation as a lease
// read anchored at committed length leaseNo: a strong read served locally
// under the ordering lease, never TOB-cast, arbitrated between commits
// leaseNo and leaseNo+1 (see history.Event.LeaseRead).
func (r *Recorder) LeaseServed(d core.Dot, leaseNo int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.events[d]; e != nil {
		e.LeaseRead = true
		e.LeaseNo = leaseNo
	}
}

// SetGuarantees registers the session's guarantee mask and coverage mode.
// Call it once, right after the session is opened.
func (r *Recorder) SetGuarantees(session core.SessionID, g core.Guarantee, mode core.GuaranteeMode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g == 0 {
		delete(r.guar, session)
		return
	}
	r.guar[session] = &guarSession{g: g, mode: mode}
}

// OpenSession mints a fresh sequential session bound to the given replica.
// Any number of sessions may share a replica. The caller validates replica
// against its deployment; the table only stores it.
func (r *Recorder) OpenSession(replica int) core.SessionID {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessions = append(r.sessions, sessionSlot{replica: replica})
	return core.SessionID(len(r.sessions) - 1)
}

// SessionReplica returns the replica a session is bound to.
func (r *Recorder) SessionReplica(session core.SessionID) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.knownLocked(session) != nil {
		return 0, false
	}
	return r.sessions[session].replica, true
}

// BindSession re-binds a session to another replica — the mobile-session
// migration step. The guarantee vectors live in this same table, so they
// follow the session for free. A session with an outstanding call cannot
// move (ErrSessionBusy): its continuation is owed by the old replica.
func (r *Recorder) BindSession(session core.SessionID, replica int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.admitLocked(session); err != nil {
		return err
	}
	r.sessions[session].replica = replica
	return nil
}

// KnownSession returns ErrUnknownSession for an id the table never minted.
func (r *Recorder) KnownSession(session core.SessionID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.knownLocked(session)
}

func (r *Recorder) knownLocked(session core.SessionID) error {
	if session < 0 || int(session) >= len(r.sessions) {
		return fmt.Errorf("%w %d", ErrUnknownSession, session)
	}
	return nil
}

// admitLocked is the gate every invocation and re-bind passes: the session
// must be in the table and must not have a call outstanding.
func (r *Recorder) admitLocked(session core.SessionID) error {
	if err := r.knownLocked(session); err != nil {
		return err
	}
	if r.busyLocked(session) {
		return fmt.Errorf("%w: session %d", ErrSessionBusy, session)
	}
	return nil
}

// SessionBusy reports whether the session's latest invocation is still
// awaiting its response (including an invocation parked on a coverage
// gate) — the condition under which Admit refuses the session, so a
// rejected invocation leaves no trace in the protocol state. Unknown
// sessions are not busy.
func (r *Recorder) SessionBusy(session core.SessionID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busyLocked(session)
}

func (r *Recorder) busyLocked(session core.SessionID) bool {
	if r.knownLocked(session) != nil {
		return false
	}
	s := &r.sessions[session]
	if s.pending != nil {
		return true
	}
	return s.last != nil && s.last.Pending && !r.lost[s.last.Dot]
}

// Demands assembles the coverage vectors a replica must dominate before
// serving the session's next operation: the read demand (what the response
// trace must contain — the session's own writes under ReadYourWrites, its
// past observations under MonotonicReads) and, for updating operations, the
// write demand (what the new request must be arbitrated after — the
// session's writes under MonotonicWrites, its observations under
// WritesFollowReads). fence is the clock watermark the serving replica must
// mint above. Vectors are compacted against known TOB positions first and
// returned as copies safe to use off the recorder's lock.
func (r *Recorder) Demands(session core.SessionID, updating bool) (read, write core.Vec, fence int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	gs := r.guar[session]
	if gs == nil {
		return
	}
	return r.demandsLocked(gs, updating)
}

func (r *Recorder) demandsLocked(gs *guarSession, updating bool) (read, write core.Vec, fence int64) {
	commitPos := func(d core.Dot) (int64, bool) { no, ok := r.tobNos[d]; return no, ok }
	gs.read.Compact(commitPos)
	gs.write.Compact(commitPos)
	if gs.g.Has(core.ReadYourWrites) {
		read.Merge(gs.write)
	}
	if gs.g.Has(core.MonotonicReads) {
		read.Merge(gs.read)
	}
	if updating {
		if gs.g.Has(core.MonotonicWrites) {
			write.Merge(gs.write)
		}
		if gs.g.Has(core.WritesFollowReads) {
			write.Merge(gs.read)
		}
	}
	// read and write are freshly built here — Merge appends into their own
	// backing arrays — so they are already safe to use off the lock.
	fence = read.MaxTS
	if write.MaxTS > fence {
		fence = write.MaxTS
	}
	return read, write, fence
}

// Admit is the client half of every invocation, on every driver. Under one
// lock it admits the session (ErrUnknownSession, ErrSessionBusy), marks it
// busy with a fresh pending call (its dot is minted when a replica accepts
// it: CompleteInvoke), and freezes into the returned core.Invocation what
// the serving replica needs from the session — the demand vectors and clock
// fence of a guarantee-carrying session (see Demands), which the call also
// keeps as its coverage witnesses, and the lease-read cast gate of a strong
// read when lease tracking is on. The busy mark holds all of it still until
// the call resolves, so the frozen form is exactly what the replica
// enforces however long the invocation is queued or parked. mode is the
// session's coverage mode (WaitForCoverage for plain sessions, which are
// always covered). The driver then completes the call (the replica covers
// the invocation), parks it (coverage pending), or cancels it (fail-fast,
// replica down).
func (r *Recorder) Admit(session core.SessionID, op spec.Op, level core.Level, wall int64) (call *Call, inv core.Invocation, mode core.GuaranteeMode, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.admitLocked(session); err != nil {
		return nil, core.Invocation{}, core.WaitForCoverage, err
	}
	call = &Call{
		session: session, op: op, level: level,
		wallInvoke: wall,
		doneCh:     make(chan struct{}),
		termCh:     make(chan struct{}),
	}
	r.sessions[session].pending = call
	r.callList = append(r.callList, call)
	inv = core.Invocation{Session: session, Op: op, Level: level}
	if gs := r.guar[session]; gs != nil {
		mode = gs.mode
		inv.Read, inv.Write, inv.Fence = r.demandsLocked(gs, !op.ReadOnly())
		call.frozenRead, call.frozenWrite = inv.Read, inv.Write
	}
	if r.leaseTrack != nil && level == core.Strong && op.ReadOnly() {
		// The session half of the lease-read gate: a replica may serve
		// the read from a committed prefix of length L iff nothing the
		// session cast is in flight and all of it sits at or below L.
		// Sessions that never cast pass with (0, true).
		inv.CastOK = true
		if ls := r.leaseTrack[session]; ls != nil {
			inv.CastCeil, inv.CastOK = ls.maxCommit, ls.castPending == 0
		}
	}
	return call, inv, mode, nil
}

// PendingCall returns the session's un-minted pending invocation, nil when
// there is none. A node process ships its completion and cancellation
// events call-blind; sessions are sequential, so the session id identifies
// the one pending call the controller must resolve them against.
func (r *Recorder) PendingCall(session core.SessionID) *Call {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.knownLocked(session) != nil {
		return nil
	}
	return r.sessions[session].pending
}

// CompleteInvoke records the acceptance of a previously pending invocation:
// the serving replica minted dot at timestamp ts. The history event is
// created at acceptance (the invocation enters the history when a replica
// takes it, not when the client queued it), demand-vector witnesses are
// attached, and the session's write vector absorbs the new dot.
func (r *Recorder) CompleteInvoke(call *Call, d core.Dot, ts int64, tobCast bool, wall int64) {
	r.mu.Lock()
	slot := &r.sessions[call.session]
	if slot.pending == call {
		slot.pending = nil
	}
	r.seq++
	e := &history.Event{
		Session:    call.session,
		Op:         call.op,
		Level:      call.level,
		Pending:    true,
		Invoke:     r.seq,
		WallInvoke: wall,
		Dot:        d,
		Timestamp:  ts,
		TOBCast:    tobCast,
		TOBNo:      -1,
	}
	r.attachGuaranteesLocked(e, call, d, ts)
	r.calls[d] = call
	r.events[d] = e
	slot.last = e
	r.order = append(r.order, d)
	if tobCast {
		r.tobCast++
		r.trackCastLocked(call.session)
	}
	r.mu.Unlock()
	call.bind(d, tobCast, wall)
}

// CancelInvoke withdraws a pending invocation that no replica accepted
// (fail-fast coverage miss, the target was down, or the deployment stopped
// underneath it): the session's busy mark clears and the call handle is
// discarded. Calling it on an invocation a replica already completed is a
// no-op — the pending slot is the pending state, and CompleteInvoke clears
// it under the same lock.
func (r *Recorder) CancelInvoke(call *Call) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := &r.sessions[call.session]
	if slot.pending != call {
		return
	}
	slot.pending = nil
	for i := len(r.callList) - 1; i >= 0; i-- {
		if r.callList[i] == call {
			r.callList = append(r.callList[:i], r.callList[i+1:]...)
			break
		}
	}
}

// attachGuaranteesLocked stamps a new event with its session's guarantee
// mask and the call's frozen demand-vector witnesses (the coverage that was
// enforced for it: see Call.frozenRead), then folds the event's own dot
// into the session's write vector.
func (r *Recorder) attachGuaranteesLocked(e *history.Event, call *Call, d core.Dot, ts int64) {
	gs := r.guar[call.session]
	if gs == nil {
		return
	}
	e.Guarantees = gs.g
	e.ReadVec, e.WriteVec = call.frozenRead, call.frozenWrite
	if !e.Op.ReadOnly() && gs.g&(core.ReadYourWrites|core.MonotonicWrites) != 0 {
		gs.write.Add(d, ts)
	}
}

// Responded records a response effect, completing the matching call.
func (r *Recorder) Responded(resp core.Response, wall int64) {
	d := resp.Req.Dot
	r.mu.Lock()
	call := r.calls[d]
	if e, ok := r.events[d]; ok && e.Pending {
		r.seq++
		e.Pending = false
		e.Return = r.seq
		e.WallReturn = wall
		e.RVal = resp.Value
		e.Trace = append([]core.Dot(nil), resp.Trace...)
		e.TraceBase = resp.TraceBase
		e.CommittedLen = resp.CommittedLen
		// The session's read vector absorbs the updating operations this
		// response observed (read-only dots are never demanded: under
		// Algorithm 2 they are purely local and no replica could cover
		// them). Dots already known committed fold straight into the
		// watermark — the frontier stays bounded by the uncommitted
		// suffix instead of re-accumulating the whole committed history
		// on every response. A checkpoint-truncated trace prefix is a
		// committed prefix by construction: it folds into the watermark
		// (and its clock fence) in O(1) via the commit index.
		if gs := r.guar[e.Session]; gs != nil && gs.g&(core.MonotonicReads|core.WritesFollowReads) != 0 {
			if b := resp.TraceBase; b > 0 {
				if b > gs.read.CommitLen {
					gs.read.CommitLen = b
				}
				if b <= len(r.commitMaxTS) && r.commitMaxTS[b-1] > gs.read.MaxTS {
					gs.read.MaxTS = r.commitMaxTS[b-1]
				}
			}
			for _, td := range resp.Trace {
				ev := r.events[td]
				if ev == nil || ev.Op.ReadOnly() {
					continue
				}
				if no, ok := r.tobNos[td]; ok {
					if int(no) > gs.read.CommitLen {
						gs.read.CommitLen = int(no)
					}
					if ev.Timestamp > gs.read.MaxTS {
						gs.read.MaxTS = ev.Timestamp
					}
					continue
				}
				gs.read.Add(td, ev.Timestamp)
			}
		}
	}
	r.mu.Unlock()
	if call != nil {
		call.respond(resp, wall)
	}
}

// StableNoticed records the stable value of a weak operation that already
// returned tentatively. It updates the call handle only: the history's rval
// stays the (first) tentative response, matching the paper's model of a
// client interested in one or the other (footnote 3).
func (r *Recorder) StableNoticed(resp core.Response, wall int64) {
	r.mu.Lock()
	call := r.calls[resp.Req.Dot]
	r.mu.Unlock()
	if call != nil {
		call.stable(resp, wall)
	}
}

// ResultLost completes an invocation as a lost result: checkpoint state
// transfer skipped the per-slot replay that would have recomputed its
// response (see core.LostResponse). The history event stays pending — the
// client observably never received a return value — but the session's busy
// mark clears and the call handle becomes terminal with Lost() reporting
// true, so clients and quiescence checks do not wait forever.
func (r *Recorder) ResultLost(d core.Dot, wall int64) {
	r.mu.Lock()
	call := r.calls[d]
	r.lost[d] = true
	r.mu.Unlock()
	if call != nil {
		call.loseResult(wall)
	}
}

// Transition records a response-status transition, feeding the matching
// call's watch subscriptions.
func (r *Recorder) Transition(t core.Transition, wall int64) {
	r.mu.Lock()
	call := r.calls[t.Dot]
	r.mu.Unlock()
	if call != nil {
		call.transition(Update{Status: t.Status, Value: t.Value, Wall: wall})
	}
}

// TOBDelivered records the request's (first) TOB delivery position and
// extends the commit-order index. Each replica delivers contiguously from 1,
// and every delivery is recorded before the effects it unlocks are routed,
// so the index is gap-free up to the largest position any live replica has
// reached — exactly the range truncated response traces can reference.
func (r *Recorder) TOBDelivered(d core.Dot, tobNo int64) {
	r.mu.Lock()
	if _, seen := r.tobNos[d]; !seen {
		r.tobNos[d] = tobNo
		if r.leaseTrack != nil {
			if ev := r.events[d]; ev != nil && ev.TOBCast {
				if ls := r.leaseTrack[ev.Session]; ls != nil {
					ls.castPending--
					if tobNo > ls.maxCommit {
						ls.maxCommit = tobNo
					}
				}
			}
		}
	}
	if int(tobNo) == len(r.commitOrder)+1 {
		r.commitOrder = append(r.commitOrder, d)
		ts := int64(0)
		if len(r.commitMaxTS) > 0 {
			ts = r.commitMaxTS[len(r.commitMaxTS)-1]
		}
		// Read-only commits (Algorithm 1 casts them too) do not raise the
		// fence: read vectors never demand them.
		if ev := r.events[d]; ev == nil || !ev.Op.ReadOnly() {
			evTS := int64(0)
			if ev != nil {
				evTS = ev.Timestamp
			}
			if evTS > ts {
				ts = evTS
			}
		}
		r.commitMaxTS = append(r.commitMaxTS, ts)
	}
	r.mu.Unlock()
}

// MarkStable records the quiescence point for the history checkers: events
// invoked afterwards act as the probes of the "eventually" predicates.
func (r *Recorder) MarkStable() {
	r.mu.Lock()
	r.stableAt = r.seq
	r.mu.Unlock()
}

// Calls returns a snapshot of every recorded call in invocation order.
func (r *Recorder) Calls() []*Call {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Call(nil), r.callList...)
}

// Call returns the call with the given dot, or nil.
func (r *Recorder) Call(d core.Dot) *Call {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[d]
}

// TOBCastCount returns how many recorded invocations entered total order
// broadcast — the number of commits a quiescent run must have applied.
func (r *Recorder) TOBCastCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tobCast
}

// History assembles the recorded history. TOB numbers are attached at
// assembly time so that late deliveries (after the response) are reflected.
// The events are snapshot copies taken under the lock: the recorder's own
// Event records keep mutating as responses arrive (on replica goroutines,
// under the live driver), so handing out live pointers would race with
// them.
func (r *Recorder) History() (*history.History, error) {
	r.mu.Lock()
	events := make([]*history.Event, 0, len(r.order))
	for _, d := range r.order {
		e := *r.events[d] // copy; the Trace slice is write-once and safe to share
		if no, ok := r.tobNos[d]; ok {
			e.TOBNo = no
		} else {
			e.TOBNo = -1
		}
		events = append(events, &e)
	}
	stableAt := r.stableAt
	// A truncated trace's prefix is exactly the shared committed prefix
	// 1..TraceBase, which the responding replica had fully delivered (and
	// this recorder indexed) before it answered; the history keeps it once.
	commits := slices.Clone(r.commitOrder)
	r.mu.Unlock()
	h, err := history.New(events, stableAt)
	if err != nil {
		return nil, err
	}
	h.Commits = commits
	return h, nil
}
