package livenet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bayou/internal/core"
	"bayou/internal/record"
	"bayou/internal/spec"
	"bayou/internal/wire"
)

// This file is the one live controller. Whether the replicas are goroutines
// in this process or separate OS processes, the client side of the system
// boundary is the same: the recorder (history, calls, the session table),
// the invoke preamble that freezes a session's demands onto the invocation,
// the fault view, the replica range checks and quiescence. What differs is
// only how a request reaches a node, and that is the carrier.

// carrier is how the Controller reaches its replicas. The fabric
// (livenet.go) carries over channel inboxes in this process; sockets
// (client.go) carries over one wire connection per node process. Replica
// ids arrive range-checked.
type carrier interface {
	// submit hands a replica an invocation (msgInvoke) or a fault-plane
	// command (msgCrash, msgRecover) and returns the node's verdict. The
	// node's observations of an invocation reach the controller's observe
	// before submit returns.
	submit(replica int, m message) error
	// query asks one replica a question, bounded by timeout; the node
	// answers on its own goroutine (node.answer).
	query(replica int, q query, timeout time.Duration) (answer, error)
	// faultView pushes the partition cells and the down set to wherever
	// peer traffic is parked. The carrier owns the slices from here on;
	// the controller never mutates them.
	faultView(cells []int, down []bool)
	// progress returns a channel that fires when probing for convergence
	// again is worthwhile; Quiesce grabs it before probing, so progress
	// made between the probe and the wait still wakes it. round counts
	// the unsettled probe passes so far.
	progress(round int) <-chan struct{}
	// stop releases the replicas and every goroutine the carrier started.
	stop()
}

// queryKind names one inspection of a replica.
type queryKind int

const (
	qRead       queryKind = iota + 1 // value of register key
	qCommitted                       // resident committed order
	qStats                           // cost counters
	qCompact                         // run log compaction: n = undo entries freed
	qCheckpoint                      // checkpoint now: n = committed entries truncated
	qBaseLen                         // n = checkpointed-prefix length
	qProbe                           // quiescence: n = committed length, flag = has internal work
	qCovered                         // flag = state dominates the read/write vectors
	qDurability                      // recovery scorecard
)

// query is one question to a replica; answer is the reply. Both are flat
// unions over the query kinds, the shape wire.Envelope gives them on a
// socket.
type query struct {
	kind        queryKind
	key         string   // qRead
	read, write core.Vec // qCovered
}

type answer struct {
	value spec.Value
	reqs  []core.Req
	stats core.Stats
	n     int
	flag  bool
	durab *wire.Durability
}

// Controller drives a live deployment: replicas as goroutines in this
// process (NewFromConfig) or as bayou-node processes over TCP (NewRemote).
// Always Stop it.
type Controller struct {
	n       int
	rec     *record.Recorder
	started time.Time
	car     carrier
	stopped atomic.Bool

	// The fault view: partition cells (all equal when healed) and the
	// crashed set. faultMu serializes the fault-plane operations end to
	// end, so views reach the carrier in the order they were made.
	faultMu sync.Mutex
	partMu  sync.Mutex
	cells   []int  // guarded by partMu
	down    []bool // guarded by partMu
}

// NewFromConfig starts an in-process deployment from a full configuration.
func NewFromConfig(cfg Config) *Controller {
	c := newController(cfg.N, cfg.LeaderLease)
	c.car = newFabric(cfg, c.observe)
	return c
}

// RemoteConfig parametrizes the controller side of a multi-process
// deployment. The per-node knobs (variant, checkpoint cadence, lease) are
// the node processes' own configuration; the controller only needs to
// know whether leases are on to mint the lease gate with invocations.
type RemoteConfig struct {
	// Addrs lists every node's listen address, indexed by replica id.
	Addrs []string
	// LeaderLease must match the node processes' -lease flag: it enables
	// the recorder's cast tracking that proves the lease-read serve gate.
	LeaderLease bool
}

// NewRemote connects a controller to already-listening node processes
// (cmd/bayou-node), or ones that come up within the wire connect budget.
func NewRemote(cfg RemoteConfig) (*Controller, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("livenet: remote deployment needs at least one node address")
	}
	c := newController(len(cfg.Addrs), cfg.LeaderLease)
	car, err := dialSockets(cfg.Addrs, c.observe)
	if err != nil {
		return nil, err
	}
	c.car = car
	return c, nil
}

// newController builds the carrier-independent half. Sessions 0..n-1 are
// pre-opened by the recorder as one default session per replica.
func newController(n int, lease bool) *Controller {
	c := &Controller{
		n:       n,
		rec:     record.New(n),
		started: time.Now(),
		cells:   make([]int, n),
		down:    make([]bool, n),
	}
	if lease {
		c.rec.EnableLeaseTracking()
	}
	return c
}

// Stop releases the deployment: in-process replica goroutines exit; node
// processes are told to shut down (their launcher owns the OS processes).
func (c *Controller) Stop() {
	if c.stopped.CompareAndSwap(false, true) {
		c.car.stop()
	}
}

// Replicas returns the deployment size.
func (c *Controller) Replicas() int { return c.n }

// Recorder exposes the observation layer: history, call lookup, watch
// subscriptions, and the session table (OpenSession, BindSession).
func (c *Controller) Recorder() *record.Recorder { return c.rec }

// wall is the driver's wall clock (microseconds since construction).
func (c *Controller) wall() int64 { return time.Since(c.started).Microseconds() }

// check is the one validation every replica-addressed operation passes.
func (c *Controller) check(replica int) error {
	if c.stopped.Load() {
		return ErrStopped
	}
	if replica < 0 || replica >= c.n {
		return fmt.Errorf("livenet: no replica %d", replica)
	}
	return nil
}

// observe lands one node observation on the recorder; both carriers feed
// it, in each node's emission order. A node process ships completions and
// cancellations call-blind (the pending call lives here): sessions are
// sequential, so the session id identifies the one pending call.
func (c *Controller) observe(ev obsEvent) {
	if ev.call == nil && (ev.kind == obsComplete || ev.kind == obsCancel) {
		if ev.call = c.rec.PendingCall(ev.sess); ev.call == nil {
			return // duplicate, or raced with a local cancel
		}
	}
	applyObs(c.rec, &ev, c.wall())
}

// Invoke submits an operation on a session at an explicit target replica
// (the session's binding, or any other — guarantee vectors are enforced at
// the target either way) and returns once the replica has processed the
// invocation: for Algorithm 2 weak operations the call is already Done
// (bounded wait-freedom), strong operations resolve in the background (wait
// with call.WaitDone). Sessions are sequential: a session whose previous
// call has not returned is rejected with record.ErrSessionBusy.
//
// The recorder admits the invocation here (Recorder.Admit: the pending
// call marks the session busy) and freezes into it everything the node
// needs from the session table — demand vectors for guarantee-carrying
// sessions, the lease-read cast gate — so the node itself never touches
// the recorder.
func (c *Controller) Invoke(sess core.SessionID, replica int, op spec.Op, level core.Level) (*record.Call, error) {
	if err := c.check(replica); err != nil {
		return nil, err
	}
	call, inv, mode, err := c.rec.Admit(sess, op, level, c.wall())
	if err != nil {
		return nil, err
	}
	m := message{kind: msgInvoke, inv: inv, failFast: mode == core.FailFast, call: call}
	if err := c.car.submit(replica, m); err != nil {
		// Withdraw the pending call so the session is not left busy
		// forever: the node's own cancel may not have arrived (it stopped,
		// or its stream broke). A no-op if the node did resolve it first.
		c.rec.CancelInvoke(call)
		return nil, err
	}
	return call, nil
}

// ask validates the replica and puts one query to it.
func (c *Controller) ask(replica int, q query, timeout time.Duration) (answer, error) {
	if err := c.check(replica); err != nil {
		return answer{}, err
	}
	return c.car.query(replica, q, timeout)
}

// SessionCovered reports whether the replica's current state dominates the
// session's full coverage demand — the coverage query of the fault-tolerant
// client choosing a failover target. A crashed replica covers nothing.
func (c *Controller) SessionCovered(sess core.SessionID, replica int, timeout time.Duration) (bool, error) {
	if err := c.rec.KnownSession(sess); err != nil {
		return false, err
	}
	if err := c.check(replica); err != nil {
		return false, err
	}
	if c.Crashed(replica) {
		return false, nil
	}
	read, write, _ := c.rec.Demands(sess, true)
	a, err := c.car.query(replica, query{kind: qCovered, read: read, write: write}, timeout)
	return a.flag, err
}

// Read fetches a register value through the replica's own goroutine (safe
// snapshot of its current state).
func (c *Controller) Read(replica int, key string, timeout time.Duration) (spec.Value, error) {
	a, err := c.ask(replica, query{kind: qRead, key: key}, timeout)
	return a.value, err
}

// Committed returns a snapshot of the replica's committed order.
func (c *Controller) Committed(replica int, timeout time.Duration) ([]core.Req, error) {
	a, err := c.ask(replica, query{kind: qCommitted}, timeout)
	return a.reqs, err
}

// BaseLen reports a replica's absolute checkpointed-prefix length.
func (c *Controller) BaseLen(replica int, timeout time.Duration) (int, error) {
	a, err := c.ask(replica, query{kind: qBaseLen}, timeout)
	return a.n, err
}

// Durability asks one replica how it came up: whether boot restored a local
// snapshot (and which generation), how many saves it has made since, and
// how many peer state transfers it accepted — the counters that verify a
// restarted node process recovered from its own disk rather than by the
// grace of its peers. An in-process replica has no stable storage and
// reports only its committed length.
func (c *Controller) Durability(replica int, timeout time.Duration) (wire.Durability, error) {
	a, err := c.ask(replica, query{kind: qDurability}, timeout)
	if err != nil {
		return wire.Durability{}, err
	}
	if a.durab == nil {
		return wire.Durability{}, errors.New("livenet: node sent no durability report")
	}
	return *a.durab, nil
}

// Stats aggregates replica cost counters, keyed by replica.
func (c *Controller) Stats(timeout time.Duration) (map[core.ReplicaID]core.Stats, error) {
	out := make(map[core.ReplicaID]core.Stats, c.n)
	for i := 0; i < c.n; i++ {
		a, err := c.ask(i, query{kind: qStats}, timeout)
		if err != nil {
			return nil, err
		}
		out[core.ReplicaID(i)] = a.stats
	}
	return out, nil
}

// Compact runs Bayou's log compaction on every replica; it returns the
// number of undo entries released.
func (c *Controller) Compact(timeout time.Duration) (int, error) {
	return c.sum(qCompact, false, timeout)
}

// Checkpoint checkpoints every live replica at its current stable state (see
// node.checkpoint); it returns the total number of committed entries
// truncated. Crashed replicas are skipped.
func (c *Controller) Checkpoint(timeout time.Duration) (int, error) {
	return c.sum(qCheckpoint, true, timeout)
}

// sum puts a counting query to every replica (only the live ones when
// liveOnly) and adds up the counts.
func (c *Controller) sum(kind queryKind, liveOnly bool, timeout time.Duration) (int, error) {
	total := 0
	for i := 0; i < c.n; i++ {
		if liveOnly && c.Crashed(i) {
			continue
		}
		a, err := c.ask(i, query{kind: kind}, timeout)
		if err != nil {
			return total, err
		}
		total += a.n
	}
	return total, nil
}

// Crash crashes a replica: its volatile state (tentative list, schedule,
// stored tentative values) is lost, traffic toward it is dropped, and
// invocations addressed to it fail until Recover. The durable image —
// committed log, dot counter, client continuations, sequencer state —
// survives. (A node process stays up, discarding protocol traffic: the
// state loss is what a crash means here.) The sequencer (replica 0) cannot
// crash: primary-commit total order does not tolerate it, which is the
// deficiency the paper's consensus-based TOB removes (use the simulator to
// script that).
func (c *Controller) Crash(replica int) error {
	if err := c.check(replica); err != nil {
		return err
	}
	if replica == 0 {
		return errors.New("livenet: cannot crash the sequencer (replica 0)")
	}
	return c.setDown(replica, msgCrash)
}

// Recover restarts a crashed replica from its durable snapshot and runs the
// resync handshake: peers retransmit their tentative suffixes and the
// sequencer replays the commits the replica slept through. The fresh view
// releases the messages parked for it while it was down (partition-held
// traffic survives a crash).
func (c *Controller) Recover(replica int) error {
	if err := c.check(replica); err != nil {
		return err
	}
	return c.setDown(replica, msgRecover)
}

// setDown runs a crash or recover on the replica and publishes the changed
// down set.
func (c *Controller) setDown(replica int, kind msgKind) error {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	if err := c.car.submit(replica, message{kind: kind}); err != nil {
		return err
	}
	c.partMu.Lock()
	c.down[replica] = kind == msgCrash
	c.partMu.Unlock()
	c.pushView()
	return nil
}

// Crashed reports whether the replica is currently crashed.
func (c *Controller) Crashed(replica int) bool {
	if replica < 0 || replica >= c.n {
		return false
	}
	c.partMu.Lock()
	defer c.partMu.Unlock()
	return c.down[replica]
}

// Partition splits the deployment into cells (unlisted replicas form an
// implicit final cell); replicas in different cells stop exchanging
// messages until Heal, which releases the parked traffic. Clients stay
// attached to their replica — sessions on a minority cell keep weak
// availability while strong operations stall, exactly as on the simulator.
func (c *Controller) Partition(cells ...[]int) error {
	if c.stopped.Load() {
		return ErrStopped
	}
	fresh := make([]int, c.n)
	for i := range fresh {
		fresh[i] = len(cells)
	}
	for i, cell := range cells {
		for _, id := range cell {
			if id < 0 || id >= c.n {
				return fmt.Errorf("livenet: no replica %d", id)
			}
			fresh[id] = i
		}
	}
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	c.partMu.Lock()
	copy(c.cells, fresh)
	c.partMu.Unlock()
	c.pushView()
	return nil
}

// Heal removes all partitions and releases parked messages.
func (c *Controller) Heal() error {
	return c.Partition()
}

// pushView hands the carrier a snapshot of the fault view. The caller holds
// faultMu.
func (c *Controller) pushView() {
	c.partMu.Lock()
	cells := append([]int(nil), c.cells...)
	down := append([]bool(nil), c.down...)
	c.partMu.Unlock()
	c.car.faultView(cells, down)
}

// Quiesce blocks until the deployment has settled: every recorded call is
// terminal (responses delivered, weak updates stabilized) and every replica
// has applied every commit and drained its internal work. It is the live
// analogue of the simulator's Settle. Replicas currently crashed are
// exempt, as are calls bound to them: a crashed replica is not a correct
// one, and its clients' calls legitimately pend until it recovers.
//
// Between unsettled probe passes Quiesce waits on the carrier's progress
// signal — a node burst in-process, a short backoff over sockets (the
// node-side signal does not cross the wire). The deadline is enforced by a
// single timer.
func (c *Controller) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	for _, call := range c.rec.Calls() {
		if r, ok := c.rec.SessionReplica(call.Session()); ok && c.Crashed(r) {
			continue
		}
		if err := call.WaitTerminal(ctx); err != nil {
			return fmt.Errorf("livenet: quiesce: call %s not terminal: %w", call.Dot(), err)
		}
	}
	// All replicas must have applied every commit (one per TOB-cast
	// invocation) and be passive; the recorder count is the ground truth
	// for how many commits a settled run contains.
	expected := c.rec.TOBCastCount()
	for round := 0; ; round++ {
		ch := c.car.progress(round)
		converged := true
		for i := 0; i < c.n && converged; i++ {
			if c.Crashed(i) {
				continue
			}
			left := time.Until(deadline)
			if left <= 0 {
				return fmt.Errorf("livenet: quiesce: %w", ErrTimeout)
			}
			a, err := c.ask(i, query{kind: qProbe}, left)
			if err != nil {
				return fmt.Errorf("livenet: quiesce: %w", err)
			}
			converged = a.n >= expected && !a.flag
		}
		if converged {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("livenet: quiesce: %w", ErrTimeout)
		}
	}
}
