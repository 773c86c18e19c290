package bayou

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"bayou/internal/core"
	"bayou/internal/record"
)

// SessionID identifies a sequential client session.
type SessionID = core.SessionID

// ErrSessionBusy reports an invocation on a session whose previous call has
// not yet returned. Sessions are the sequential clients of the paper's
// system model (§3.2): open more sessions — any number may share a replica —
// to issue concurrent operations.
var ErrSessionBusy = record.ErrSessionBusy

// ErrGuarantee reports an invocation rejected under FailFast: the serving
// replica cannot yet cover the session's guarantee vectors (it has not seen
// the session's writes, or lags behind its reads).
var ErrGuarantee = record.ErrGuarantee

// Guarantee is a bitmask of per-session guarantees (Terry et al., PDIS
// '94). A session minted with guarantees keeps them wherever it goes: the
// serving replica must prove coverage of the session's read/write vectors
// before accepting an invocation, so a client can migrate between replicas
// — or fail over from a crashed one — without ever unseeing its own writes
// or rewinding its reads.
type Guarantee = core.Guarantee

// The four session guarantees, plus the Causal bundle of all of them.
const (
	// ReadYourWrites: every response reflects the session's own preceding
	// updates.
	ReadYourWrites = core.ReadYourWrites
	// MonotonicReads: a later response never unsees an update an earlier
	// one observed.
	MonotonicReads = core.MonotonicReads
	// MonotonicWrites: the session's updates are arbitrated in session
	// order.
	MonotonicWrites = core.MonotonicWrites
	// WritesFollowReads: the session's updates are arbitrated after the
	// updates it had observed.
	WritesFollowReads = core.WritesFollowReads
	// Causal bundles all four.
	Causal = core.Causal
)

// GuaranteeMode selects what an invocation does when the serving replica
// cannot yet cover the session's vectors.
type GuaranteeMode = core.GuaranteeMode

const (
	// WaitForCoverage (the default) parks the invocation until the replica
	// catches up; the returned Call stays pending meanwhile.
	WaitForCoverage = core.WaitForCoverage
	// FailFast rejects the invocation immediately with ErrGuarantee, so
	// the client can pick another replica (see Session.Covered).
	FailFast = core.FailFast
)

// SessionOption configures a session at minting time.
type SessionOption func(*sessionConfig) error

type sessionConfig struct {
	g    Guarantee
	mode GuaranteeMode
}

// WithGuarantees makes the session carry the given guarantees — e.g.
// bayou.ReadYourWrites|bayou.MonotonicReads, or the full bayou.Causal
// bundle — enforced at whichever replica serves it.
func WithGuarantees(g Guarantee) SessionOption {
	return func(sc *sessionConfig) error {
		sc.g = g
		return nil
	}
}

// WithGuaranteeMode selects WaitForCoverage (default) or FailFast.
func WithGuaranteeMode(m GuaranteeMode) SessionOption {
	return func(sc *sessionConfig) error {
		if m != WaitForCoverage && m != FailFast {
			return fmt.Errorf("bayou: unknown guarantee mode %d", int(m))
		}
		sc.mode = m
		return nil
	}
}

// Session is one sequential client. It is minted bound to a replica
// (Cluster.Session) but is *mobile*: Bind migrates it to another replica,
// InvokeAt serves one operation elsewhere without re-binding, and the
// guarantees it was minted with travel along — the session's read/write
// vectors live on the deployment's shared session table, so any replica
// asked to serve it first proves it has caught up to the session's past.
//
// Any number of sessions can share a replica, and their invocations may
// freely overlap. Each individual session accepts one operation at a time
// (ErrSessionBusy otherwise), which is exactly the well-formedness the
// history checkers assume.
//
// Concurrency: on a live cluster (NewLive), open one session per goroutine
// — the replica goroutines serialize their work, so sessions may invoke
// from concurrent goroutines. A simulated cluster (New) runs entirely on
// the caller's goroutine: its sessions can overlap *logically* (one
// session's call pending while another invokes) but every API call must be
// issued from a single goroutine, like the rest of the simulator.
type Session struct {
	c    *Cluster
	id   core.SessionID
	g    Guarantee
	mode GuaranteeMode

	mu   sync.Mutex
	last *Call
}

// Session mints a new sequential session bound to the given replica.
// Options attach session guarantees:
//
//	s, _ := c.Session(1, bayou.WithGuarantees(bayou.Causal))
//
// A guarantee-carrying session's invocations are gated on coverage: a
// replica that has not yet seen the session's writes (or lags behind its
// reads) either parks the invocation until it catches up (the default) or
// rejects it with ErrGuarantee under WithGuaranteeMode(FailFast).
func (c *Cluster) Session(replica int, opts ...SessionOption) (*Session, error) {
	if replica < 0 || replica >= c.n {
		return nil, fmt.Errorf("bayou: no replica %d", replica)
	}
	var sc sessionConfig
	for _, opt := range opts {
		if err := opt(&sc); err != nil {
			return nil, err
		}
	}
	id := c.rec.OpenSession(replica)
	if sc.g != 0 {
		c.rec.SetGuarantees(id, sc.g, sc.mode)
	}
	return &Session{c: c, id: id, g: sc.g, mode: sc.mode}, nil
}

// ID returns the session's identifier (the Session key of history events).
func (s *Session) ID() SessionID { return s.id }

// Replica returns the replica the session is currently bound to.
func (s *Session) Replica() int {
	replica, _ := s.c.rec.SessionReplica(s.id)
	return replica
}

// Guarantees returns the guarantee mask the session carries.
func (s *Session) Guarantees() Guarantee { return s.g }

// Bind migrates the session to another replica: subsequent Invokes are
// served there, under the same guarantees — the session's vectors follow
// it, so the new replica must cover the session's past before serving it.
// A session with an outstanding call cannot move (ErrSessionBusy): its
// continuation is owed by the current replica.
func (s *Session) Bind(replica int) error {
	if replica < 0 || replica >= s.c.n {
		return fmt.Errorf("bayou: no replica %d", replica)
	}
	return s.c.rec.BindSession(s.id, replica)
}

// Covered reports whether the replica's current state dominates the
// session's guarantee vectors — the probe a fail-fast client uses to pick
// a failover target before Bind. A crashed replica covers nothing.
func (s *Session) Covered(replica int) (bool, error) {
	if replica < 0 || replica >= s.c.n {
		return false, fmt.Errorf("bayou: no replica %d", replica)
	}
	return s.c.drv.Coverage(s.id, replica)
}

// Invoke submits op at the session's bound replica with the given level.
// The returned Call completes as the deployment makes progress —
// immediately for Algorithm 2 weak operations, after consensus for strong
// ones. On a guarantee-carrying session the call may additionally park
// until the replica covers the session's vectors (or the invocation fails
// with ErrGuarantee under FailFast). A session whose previous call has not
// returned yields ErrSessionBusy.
func (s *Session) Invoke(op Op, level Level) (*Call, error) {
	return s.InvokeAt(s.Replica(), op, level)
}

// InvokeAt submits op at an explicit target replica without re-binding the
// session — a one-shot read served elsewhere, say. The session's
// guarantees are enforced at the target exactly as at the binding.
func (s *Session) InvokeAt(replica int, op Op, level Level) (*Call, error) {
	if replica < 0 || replica >= s.c.n {
		return nil, fmt.Errorf("bayou: no replica %d", replica)
	}
	call, err := s.c.drv.Invoke(s.id, replica, op, level)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.last = call
	s.mu.Unlock()
	return call, nil
}

// Last returns the session's most recent call (nil before the first
// invocation).
func (s *Session) Last() *Call {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Wait blocks until the session's outstanding call has its response,
// driving the deployment as the substrate requires (the simulator advances
// virtual time; the live driver parks on the call), and returns that
// response. It respects ctx for cancellation and deadlines.
//
// If the session's replica is crashed, the call legitimately pends: on the
// live driver Wait blocks until ctx is done (or the replica recovers and
// the surviving continuation answers); on the simulator it fails once the
// event queue drains with the call still pending. Waiting with a deadline
// is the right shape for fault-tolerant clients.
func (s *Session) Wait(ctx context.Context) (Response, error) {
	last := s.Last()
	if last == nil {
		return Response{}, errors.New("bayou: session has no outstanding call")
	}
	return s.c.Wait(ctx, last)
}

// ErrResultLost reports a call that completed without a response value: the
// operation committed — its effect is in every replica's state — but its
// replica was down when the commit happened and recovered by checkpoint
// state transfer, so the return value was never computed anywhere and never
// can be. The write-log truncation trade-off of the original Bayou, made
// explicit (see Call.Lost and WithCheckpointEvery).
var ErrResultLost = errors.New("bayou: operation committed but its result was lost to checkpoint truncation")

// Wait blocks until the given call has its response, driving the deployment
// as the substrate requires, and returns it. A call completed as a lost
// result (Call.Lost) returns ErrResultLost rather than a bogus zero value.
func (c *Cluster) Wait(ctx context.Context, call *Call) (Response, error) {
	if call == nil {
		return Response{}, errors.New("bayou: nil call")
	}
	if err := c.drv.AwaitCall(ctx, call); err != nil {
		return Response{}, err
	}
	if resp := call.Response(); resp.Req.Op != nil {
		// A lost call that had already answered tentatively keeps that
		// value — only the stable notice was lost.
		return resp, nil
	}
	if call.Lost() {
		return Response{}, ErrResultLost
	}
	return call.Response(), nil
}
