// Package cluster assembles a full Bayou deployment inside the simulator:
// core replicas (Algorithm 1 or 2), reliable broadcast, total order
// broadcast (Paxos- or primary-based), the failure detector Ω, and the
// network — and records every invocation and response into a history with
// the witness data the checkers consume.
//
// The cluster is the experiment driver: it exposes partitions, Ω
// stabilization, per-replica processing delay and clock skew (§2.3), and
// either automatic internal-step scheduling or manual stepping (used by the
// scenario package to reproduce the exact schedules of Figures 1 and 2,
// where "for every operation, its local execution is for some reason
// delayed").
package cluster

import (
	"errors"
	"fmt"

	"bayou/internal/core"
	"bayou/internal/fd"
	"bayou/internal/history"
	"bayou/internal/paxos"
	"bayou/internal/rb"
	"bayou/internal/record"
	"bayou/internal/sim"
	"bayou/internal/simnet"
	"bayou/internal/spec"
	"bayou/internal/tob"
)

// TOBKind selects the total-order-broadcast implementation.
type TOBKind int

const (
	// PaxosTOB is the consensus-based TOB of the modified protocol.
	PaxosTOB TOBKind = iota + 1
	// PrimaryTOB is the original Bayou primary-commit scheme (replica 0
	// is the primary); the E11 ablation.
	PrimaryTOB
)

// Config parametrizes a cluster.
type Config struct {
	N       int          // number of replicas (≥ 1)
	Variant core.Variant // Original (Alg. 1) or NoCircularCausality (Alg. 2)
	TOB     TOBKind      // defaults to PaxosTOB
	Seed    int64        // scheduler seed
	Latency sim.Time     // link latency (default 10)

	// ProcDelay is the virtual time one internal step (rollback or
	// execute) takes, per replica; missing entries default to 1. The
	// §2.3 slow replica is modelled with a large entry.
	ProcDelay map[core.ReplicaID]sim.Time

	// ClockSlowdown divides a replica's clock (§2.3's "artificially
	// slowing the clock on Rs"); missing entries default to 1.
	ClockSlowdown map[core.ReplicaID]int64

	// ManualStepping disables automatic scheduling of internal steps;
	// the scenario drives StepReplica/DrainReplica explicitly.
	ManualStepping bool

	// StepBatch is the maximum number of internal events one scheduled
	// activation executes (via the replica's StepN). Values ≤ 1 keep the
	// seed-faithful one-event-per-activation discipline on which the
	// paper's timing experiments rely; larger values trade per-step
	// timing granularity for throughput: a backlog of k ≤ StepBatch
	// events drains in a single activation costing one ProcDelay.
	StepBatch int

	// CheckpointEvery makes every replica checkpoint its stable state once
	// it has accumulated that many committed entries past its last
	// checkpoint: the committed log, undo data, dedup sets and the TOB
	// replay log truncate to the suffix, snapshots and recovery become
	// O(Δ), and far-behind learners catch up by state transfer. Zero (the
	// default) disables automatic checkpointing; Cluster.Checkpoint
	// triggers one manually either way. Ignored under ManualStepping — a
	// checkpoint drains the replica's internal work, which manual-schedule
	// scenarios must control themselves.
	CheckpointEvery int

	// PipelineDepth bounds how many consensus slots a stable Paxos leader
	// keeps in flight concurrently (0 = the paxos package default). Only
	// meaningful under PaxosTOB.
	PipelineDepth int

	// BatchCap bounds how many cast values one consensus slot carries
	// (0 = the paxos package default; 1 reproduces the classic
	// one-value-per-slot baseline — the scaling tests' control knob).
	BatchCap int

	// LeaseTicks enables leader leases of that duration in scheduler ticks
	// (0 = disabled): a quorum-leased leader serves strong reads from its
	// local committed prefix with zero proposal rounds. Under PrimaryTOB
	// the sequencer is structurally the permanent leaseholder, so any
	// non-zero value simply switches the local strong-read path on.
	LeaseTicks sim.Time
}

// Call is a client's handle on one invocation (see record.Call).
type Call = record.Call

// Cluster is a running deployment. Construct with New. Not safe for
// concurrent use: everything runs on the simulator's single thread.
type Cluster struct {
	cfg   Config
	sched *sim.Scheduler
	net   *simnet.Network
	omega *fd.Omega
	nodes []*node
	rec   *record.Recorder
}

type node struct {
	id          core.ReplicaID
	replica     *core.Replica
	rbNode      *rb.Node
	tobNode     tob.TOB
	procDelay   sim.Time
	stepPending bool
	crashed     bool
	cl          *Cluster

	// parked holds guarantee-carrying invocations waiting for this
	// replica's state to cover their session vectors; every state change
	// (delivery, internal step, recovery) retries them. retrying guards
	// against re-entrance: a primary-TOB self-commit during a completion
	// re-enters the delivery path synchronously. ckpting likewise guards
	// the checkpoint drain against cadence re-entrance.
	parked   []parkedInvoke
	retrying bool
	ckpting  bool

	// leaseHeld is the ordering-lease predicate core.Replica.Accept asks
	// before serving a strong read locally: the TOB endpoint's LeaseHeld,
	// nil when leases are off.
	leaseHeld func() bool

	effPool core.EffectsPool
	reqBuf  []core.Req // scratch for converting delivery batches
}

// parkedInvoke is one admitted invocation blocked on a coverage gate.
type parkedInvoke struct {
	inv  core.Invocation
	call *record.Call
}

func (n *node) takeEff() *core.Effects { return n.effPool.Take() }
func (n *node) putEff(e *core.Effects) { n.effPool.Put(e) }

// New builds and wires a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.N < 1 {
		return nil, errors.New("cluster: need at least one replica")
	}
	if cfg.Variant == core.VariantDefault {
		cfg.Variant = core.NoCircularCausality
	}
	if !cfg.Variant.Valid() {
		return nil, fmt.Errorf("cluster: unknown protocol variant %s", cfg.Variant)
	}
	if cfg.TOB == 0 {
		cfg.TOB = PaxosTOB
	}
	if cfg.Latency == 0 {
		cfg.Latency = 10
	}
	c := &Cluster{
		cfg:   cfg,
		sched: sim.New(cfg.Seed),
		rec:   record.New(cfg.N),
	}
	if cfg.LeaseTicks > 0 {
		// The lease-read serve gate needs per-session cast/commit tracking;
		// with leases off the recorder skips that bookkeeping entirely
		// (exact alloc parity on the weak hot path).
		c.rec.EnableLeaseTracking()
	}
	c.net = simnet.New(c.sched)
	c.net.SetLatency(func(from, to simnet.NodeID) sim.Time {
		if from == to {
			return 1
		}
		return cfg.Latency
	})
	c.omega = fd.New()

	peers := make([]simnet.NodeID, cfg.N)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	for i := 0; i < cfg.N; i++ {
		id := core.ReplicaID(i)
		slow := cfg.ClockSlowdown[id]
		if slow <= 0 {
			slow = 1
		}
		n := &node{id: id, cl: c, procDelay: 1}
		if d, ok := cfg.ProcDelay[id]; ok && d > 0 {
			n.procDelay = d
		}
		n.replica = core.NewReplica(id, cfg.Variant, func() int64 {
			return int64(c.sched.Now()) / slow
		})
		n.replica.EnableTransitions()
		n.rbNode = rb.New(simnet.NodeID(i), c.sched, c.net, nil)
		n.rbNode.SetBatchDeliver(n.onRBDeliverBatch)
		switch cfg.TOB {
		case PrimaryTOB:
			n.tobNode = tob.NewPrimary(simnet.NodeID(i), 0, c.net, nil)
		default:
			px := tob.NewPaxos(simnet.NodeID(i), peers, c.sched, c.net, c.omega, nil)
			if cfg.PipelineDepth > 0 {
				px.SetPipelineDepth(cfg.PipelineDepth)
			}
			if cfg.BatchCap > 0 {
				px.SetBatchCap(cfg.BatchCap)
			}
			if cfg.LeaseTicks > 0 {
				px.EnableLease(cfg.LeaseTicks)
			}
			n.tobNode = px
		}
		if cfg.LeaseTicks > 0 {
			n.leaseHeld = n.tobNode.LeaseHeld
		}
		n.tobNode.SetBatchDeliver(n.onTOBDeliverBatch)
		n.tobNode.SetInstall(n.onInstallCheckpoint)
		mux := &simnet.Mux{}
		mux.Add(n.rbNode.Handle)
		mux.Add(n.tobNode.Handle)
		c.net.Register(simnet.NodeID(i), mux.Handler())
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Scheduler exposes the simulation scheduler (scenarios schedule their own
// injections with it).
func (c *Cluster) Scheduler() *sim.Scheduler { return c.sched }

// Network exposes the network (partitions, crashes).
func (c *Cluster) Network() *simnet.Network { return c.net }

// Omega exposes the failure detector oracle.
func (c *Cluster) Omega() *fd.Omega { return c.omega }

// Replica returns the core replica (introspection for tests and examples).
func (c *Cluster) Replica(id core.ReplicaID) *core.Replica { return c.nodes[id].replica }

// StabilizeOmega makes every replica trust leader — the stable-run switch.
func (c *Cluster) StabilizeOmega(leader core.ReplicaID) {
	nodes := make([]simnet.NodeID, c.cfg.N)
	for i := range nodes {
		nodes[i] = simnet.NodeID(i)
	}
	c.omega.Stabilize(nodes, simnet.NodeID(leader))
}

// DestabilizeOmega clears all leader hints — the asynchronous-run switch.
func (c *Cluster) DestabilizeOmega() {
	nodes := make([]simnet.NodeID, c.cfg.N)
	for i := range nodes {
		nodes[i] = simnet.NodeID(i)
	}
	c.omega.Destabilize(nodes)
}

// Partition splits the network (delegates to simnet).
func (c *Cluster) Partition(cells ...[]core.ReplicaID) {
	conv := make([][]simnet.NodeID, len(cells))
	for i, cell := range cells {
		for _, id := range cell {
			conv[i] = append(conv[i], simnet.NodeID(id))
		}
	}
	c.net.Partition(conv...)
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.net.Heal() }

// SlowLink multiplies the latency between two replicas (both directions) by
// factor; factor 1 restores normal speed.
func (c *Cluster) SlowLink(a, b core.ReplicaID, factor int64) {
	c.net.SlowLink(simnet.NodeID(a), simnet.NodeID(b), factor)
}

// ErrReplicaDown reports an operation addressed to a crashed replica.
var ErrReplicaDown = errors.New("cluster: replica is crashed")

// Crash silently crashes a replica: its volatile state (tentative list,
// execution schedule, stored tentative values, RB duplicate filter) is
// gone, the network drops traffic addressed to it, and sessions bound to it
// are rejected until Recover. The durable image — committed log, dot
// counter, client continuations, and the TOB endpoint's acceptor/learner
// state (classically persisted in Paxos) — survives.
func (c *Cluster) Crash(id core.ReplicaID) error {
	if int(id) < 0 || int(id) >= c.cfg.N {
		return fmt.Errorf("cluster: no replica %d", id)
	}
	if c.cfg.TOB == PrimaryTOB && id == 0 {
		// Forwards toward a crashed primary are dropped and nothing
		// retransmits them — primary commit is not fault-tolerant (the
		// deficiency that motivated the consensus TOB), so refuse rather
		// than leave strong operations silently wedged forever.
		return errors.New("cluster: cannot crash the primary under PrimaryTOB")
	}
	n := c.nodes[id]
	if n.crashed {
		return fmt.Errorf("%w: %d already crashed", ErrReplicaDown, id)
	}
	n.crashed = true
	c.net.Crash(simnet.NodeID(id))
	return nil
}

// Crashed reports whether the replica is currently crashed.
func (c *Cluster) Crashed(id core.ReplicaID) bool {
	return int(id) >= 0 && int(id) < c.cfg.N && c.nodes[id].crashed
}

// Recover restarts a crashed replica from its durable snapshot: the
// committed prefix is re-executed into a fresh state object, continuations
// whose requests committed while the replica was down are answered
// immediately, a fresh RB endpoint (primed with the committed ids) runs the
// retransmission handshake to rebuild the tentative suffix, and the TOB
// endpoint catches up on decided slots it slept through. The replica then
// converges with the rest of the deployment through the ordinary protocol.
func (c *Cluster) Recover(id core.ReplicaID) error {
	if int(id) < 0 || int(id) >= c.cfg.N {
		return fmt.Errorf("cluster: no replica %d", id)
	}
	n := c.nodes[id]
	if !n.crashed {
		return fmt.Errorf("cluster: replica %d is not crashed", id)
	}
	snap := n.replica.Snapshot()
	slow := c.cfg.ClockSlowdown[id]
	if slow <= 0 {
		slow = 1
	}
	eff := n.takeEff()
	defer n.putEff(eff)
	restored, err := core.RestoreReplica(snap, func() int64 {
		return int64(c.sched.Now()) / slow
	}, true, eff)
	if err != nil {
		return fmt.Errorf("cluster: recover %d: %w", id, err)
	}
	n.replica = restored
	n.stepPending = false

	// Fresh volatile RB state, primed with the durable prefix so the
	// resync replay re-delivers only what the crash lost.
	n.rbNode = rb.New(simnet.NodeID(id), c.sched, c.net, nil)
	n.rbNode.SetBatchDeliver(n.onRBDeliverBatch)
	have := make(map[string]bool, len(snap.Committed))
	for _, r := range snap.Committed {
		have[r.ID()] = true
		n.rbNode.MarkSeen(r.ID())
	}
	mux := &simnet.Mux{}
	mux.Add(n.rbNode.Handle)
	mux.Add(n.tobNode.Handle)
	c.net.Register(simnet.NodeID(id), mux.Handler())

	n.crashed = false
	c.net.Recover(simnet.NodeID(id))
	n.route(*eff) // recovery responses for requests committed while down
	n.rbNode.Resync(have)
	n.tobNode.Resync()
	n.scheduleStep()
	n.retryParked() // coverage may already hold again from the durable prefix
	return nil
}

// ErrSessionBusy reports an invocation on a session whose previous operation
// has not yet returned. Well-formed histories (§3.2) require sessions to be
// sequential: a client blocked on a strong operation cannot issue more work.
var ErrSessionBusy = record.ErrSessionBusy

// Invoke submits an operation at a replica on its default session (session
// id == replica id, pre-opened by the recorder) and returns the call handle,
// which fills in when the response arrives. Multi-session clients mint ids
// with Recorder().OpenSession and use InvokeSessionAt.
func (c *Cluster) Invoke(id core.ReplicaID, op spec.Op, level core.Level) (*Call, error) {
	return c.InvokeSessionAt(core.SessionID(id), id, op, level)
}

// InvokeSessionAt submits an operation on the given session at an explicit
// target replica (which may differ from the session's binding — a one-shot
// read at another replica, say). Guarantee-carrying sessions are gated on
// coverage: if the target cannot yet dominate the session's vectors the
// invocation parks until it can (WaitForCoverage) or fails with
// record.ErrGuarantee (FailFast).
func (c *Cluster) InvokeSessionAt(sess core.SessionID, id core.ReplicaID, op spec.Op, level core.Level) (*Call, error) {
	if int(id) < 0 || int(id) >= c.cfg.N {
		return nil, fmt.Errorf("cluster: no replica %d", id)
	}
	n := c.nodes[id]
	if n.crashed {
		return nil, fmt.Errorf("%w: %d (session %d)", ErrReplicaDown, id, sess)
	}
	call, inv, mode, err := c.rec.Admit(sess, op, level, int64(c.sched.Now()))
	if err != nil {
		return nil, err
	}
	pi := parkedInvoke{inv: inv, call: call}
	switch {
	case n.replica.Covers(inv):
		if err := n.accept(pi); err != nil {
			c.rec.CancelInvoke(call)
			return nil, fmt.Errorf("cluster: invoke on %d: %w", id, err)
		}
	case mode == core.FailFast:
		c.rec.CancelInvoke(call)
		return nil, fmt.Errorf("%w: session %d at replica %d", record.ErrGuarantee, sess, id)
	default:
		n.parked = append(n.parked, pi)
	}
	return call, nil
}

// SessionCovered reports whether the replica's current state dominates the
// session's full coverage demand (read and write vectors) — the driver's
// coverage query, useful for choosing a failover target. A crashed replica
// covers nothing.
func (c *Cluster) SessionCovered(sess core.SessionID, id core.ReplicaID) (bool, error) {
	if err := c.rec.KnownSession(sess); err != nil {
		return false, err
	}
	if int(id) < 0 || int(id) >= c.cfg.N {
		return false, fmt.Errorf("cluster: no replica %d", id)
	}
	n := c.nodes[id]
	if n.crashed {
		return false, nil
	}
	read, write, _ := c.rec.Demands(sess, true)
	return n.replica.CoversSession(read, write), nil
}

// accept serves a covered invocation at the node (core.Replica.Accept) and
// binds the pending call to the minted dot.
func (n *node) accept(pi parkedInvoke) error {
	eff := n.takeEff()
	defer n.putEff(eff)
	req, leased, err := n.replica.Accept(pi.inv, n.leaseHeld, eff)
	if err != nil {
		return err
	}
	n.cl.rec.CompleteInvoke(pi.call, req.Dot, req.Timestamp, len(eff.TOBCast) > 0, int64(n.cl.sched.Now()))
	if leased {
		n.cl.rec.LeaseServed(req.Dot, int64(n.replica.CommittedLen()))
	}
	n.route(*eff)
	if !leased {
		n.scheduleStep()
	}
	return nil
}

// retryParked completes every parked invocation whose coverage now holds,
// repeating until a pass makes no progress (one completion can enable
// another — a primary self-commit raises the committed watermark
// synchronously).
func (n *node) retryParked() {
	if n.retrying || n.crashed || len(n.parked) == 0 {
		return
	}
	n.retrying = true
	defer func() { n.retrying = false }()
	for !n.crashed {
		hit := -1
		for i, pi := range n.parked {
			if n.replica.Covers(pi.inv) {
				hit = i
				break
			}
		}
		if hit < 0 {
			return
		}
		pi := n.parked[hit]
		n.parked = append(n.parked[:hit], n.parked[hit+1:]...)
		if err := n.accept(pi); err != nil {
			panic(fmt.Sprintf("cluster: gated invoke on %d: %v", n.id, err))
		}
	}
}

// StepReplica performs one internal step at the replica (manual mode).
func (c *Cluster) StepReplica(id core.ReplicaID) error {
	n := c.nodes[id]
	if n.crashed {
		return fmt.Errorf("%w: %d", ErrReplicaDown, id)
	}
	eff := n.takeEff()
	defer n.putEff(eff)
	if err := n.replica.StepInto(eff); err != nil {
		return err
	}
	n.route(*eff)
	n.retryParked()
	return nil
}

// DrainReplica runs internal steps at the replica until passive (manual
// mode).
func (c *Cluster) DrainReplica(id core.ReplicaID) error {
	n := c.nodes[id]
	for n.replica.HasInternalWork() {
		if err := c.StepReplica(id); err != nil {
			return err
		}
	}
	return nil
}

// Settle runs the simulation to quiescence. It returns an error when the
// step budget is exhausted first (protocol livelock) — callers in
// asynchronous-run scenarios use RunFor instead, since pending strong
// operations legitimately keep retry timers alive.
func (c *Cluster) Settle(budget int64) error {
	if budget <= 0 {
		budget = 5_000_000
	}
	if _, ok := c.sched.Run(budget); !ok {
		return errors.New("cluster: simulation did not quiesce within budget")
	}
	return nil
}

// RunFor advances the simulation by d ticks.
func (c *Cluster) RunFor(d sim.Time) { c.sched.RunFor(d) }

// MarkStable records the quiescence cutoff for the history's finite-trace
// predicates: events invoked after this call act as probes.
func (c *Cluster) MarkStable() { c.rec.MarkStable() }

// History assembles the recorded history.
func (c *Cluster) History() (*history.History, error) { return c.rec.History() }

// Calls returns every recorded call in invocation order.
func (c *Cluster) Calls() []*Call { return c.rec.Calls() }

// Recorder exposes the shared observation layer (watch subscriptions, call
// lookup by dot).
func (c *Cluster) Recorder() *record.Recorder { return c.rec }

// Stats aggregates replica cost counters (rollbacks/executions), keyed by
// replica.
func (c *Cluster) Stats() map[core.ReplicaID]core.Stats {
	out := make(map[core.ReplicaID]core.Stats, len(c.nodes))
	for _, n := range c.nodes {
		out[n.id] = n.replica.Stats()
	}
	return out
}

// NetStats exposes network counters.
func (c *Cluster) NetStats() simnet.Stats { return c.net.Stats() }

// TOBLeaseHeld reports whether the replica's TOB endpoint currently holds
// the ordering lease (false for a crashed replica — its endpoint is not
// running to serve anything).
func (c *Cluster) TOBLeaseHeld(id core.ReplicaID) bool {
	if int(id) < 0 || int(id) >= c.cfg.N || c.nodes[id].crashed {
		return false
	}
	return c.nodes[id].tobNode.LeaseHeld()
}

// PaxosCounters returns the replica's consensus cost counters (the zero
// value under PrimaryTOB) — the deterministic evidence for the batching and
// zero-proposal-round lease-read claims.
func (c *Cluster) PaxosCounters(id core.ReplicaID) paxos.Counters {
	if int(id) < 0 || int(id) >= c.cfg.N {
		return paxos.Counters{}
	}
	if px, ok := c.nodes[id].tobNode.(*tob.Paxos); ok {
		return px.Counters()
	}
	return paxos.Counters{}
}

// CompactAll runs Bayou's log compaction on every replica: undo data for
// committed prefixes is released (the returned count), and each node's RB
// retransmission log drops its committed entries — a recovering peer
// refetches those through the TOB learner catch-up instead, so the resync
// log stays proportional to the uncommitted suffix.
func (c *Cluster) CompactAll() int {
	total := 0
	for _, n := range c.nodes {
		total += n.replica.Compact()
		n.compactRB()
	}
	return total
}

// compactRB drops RB retransmission-log entries for requests known
// committed here (inside or past the checkpoint).
func (n *node) compactRB() {
	n.rbNode.Compact(func(id string) bool {
		d, ok := core.ParseDot(id)
		return ok && n.replica.KnownCommitted(d)
	})
}

// Checkpoint checkpoints every live replica at its current stable state: the
// committed log, undo data and dedup sets truncate to the suffix, the TOB
// endpoint truncates its replay log and captures the state-transfer record,
// and the RB retransmission log drops everything the checkpoint covers.
// Returns the total number of committed entries truncated across replicas.
// Crashed replicas are skipped — their durable state checkpoints on their
// own cadence after recovery.
func (c *Cluster) Checkpoint() (int, error) {
	total := 0
	for _, n := range c.nodes {
		if n.crashed {
			continue
		}
		truncated, err := n.checkpoint()
		if err != nil {
			return total, err
		}
		total += truncated
	}
	return total, nil
}

// CheckpointReplica checkpoints one replica (see Checkpoint).
func (c *Cluster) CheckpointReplica(id core.ReplicaID) (int, error) {
	if int(id) < 0 || int(id) >= c.cfg.N {
		return 0, fmt.Errorf("cluster: no replica %d", id)
	}
	n := c.nodes[id]
	if n.crashed {
		return 0, fmt.Errorf("%w: %d", ErrReplicaDown, id)
	}
	return n.checkpoint()
}

// checkpoint drains the node's internal work (so the stable prefix reaches
// the committed watermark), checkpoints the replica, and threads the new
// base through the broadcast layers.
func (n *node) checkpoint() (int, error) {
	if n.ckpting {
		return 0, nil
	}
	n.ckpting = true
	defer func() { n.ckpting = false }()
	eff := n.takeEff()
	if _, err := n.replica.DrainInto(eff); err != nil {
		n.putEff(eff)
		return 0, fmt.Errorf("cluster: checkpoint drain on %d: %w", n.id, err)
	}
	n.route(*eff)
	n.putEff(eff)
	stats, err := n.replica.Checkpoint(n.replica.CommittedLen())
	if err != nil {
		return 0, fmt.Errorf("cluster: checkpoint on %d: %w", n.id, err)
	}
	if stats.Truncated == 0 {
		return 0, nil
	}
	rec, _ := n.replica.CheckpointRecord()
	if err := n.tobNode.SetCheckpoint(int64(rec.BaseLen), rec); err != nil {
		return stats.Truncated, fmt.Errorf("cluster: checkpoint on %d: %w", n.id, err)
	}
	n.compactRB()
	n.retryParked()
	return stats.Truncated, nil
}

// maybeCheckpoint runs the automatic cadence: checkpoint once the committed
// suffix since the last base reaches Config.CheckpointEvery.
func (n *node) maybeCheckpoint() {
	every := n.cl.cfg.CheckpointEvery
	if every <= 0 || n.cl.cfg.ManualStepping || n.crashed || n.ckpting {
		return
	}
	if n.replica.CommittedLen()-n.replica.BaseLen() < every {
		return
	}
	if _, err := n.checkpoint(); err != nil {
		panic(fmt.Sprintf("cluster: automatic checkpoint on %d: %v", n.id, err))
	}
}

// onInstallCheckpoint is the state-transfer sink: a peer's checkpoint record
// arrives through the TOB endpoint when this replica is too far behind for
// per-slot replay. It reports whether the replica installed it (the TOB
// layer then fast-forwards its cursors).
func (n *node) onInstallCheckpoint(state any, upTo int64) bool {
	rec, ok := state.(*core.CheckpointRecord)
	if !ok || n.crashed {
		return false
	}
	eff := n.takeEff()
	defer n.putEff(eff)
	stats, err := n.replica.InstallCheckpoint(rec, eff)
	if err != nil {
		panic(fmt.Sprintf("cluster: install checkpoint on %d: %v", n.id, err))
	}
	if !stats.Installed {
		return false
	}
	n.route(*eff)
	n.compactRB()
	n.scheduleStep()
	n.retryParked()
	return true
}

// route dispatches a replica's effects into the broadcast layers and the
// recorder. Casts of more than one request go out as single batch
// envelopes.
func (n *node) route(eff core.Effects) {
	switch len(eff.RBCast) {
	case 0:
	case 1:
		n.rbNode.Cast(rb.Message{ID: eff.RBCast[0].ID(), Payload: eff.RBCast[0]})
	default:
		ms := make([]rb.Message, len(eff.RBCast))
		for i, r := range eff.RBCast {
			ms[i] = rb.Message{ID: r.ID(), Payload: r}
		}
		n.rbNode.CastBatch(ms)
	}
	for _, r := range eff.TOBCast {
		n.tobNode.Cast(r.ID(), r)
	}
	for _, t := range eff.Transitions {
		n.cl.rec.Transition(t, int64(n.cl.sched.Now()))
	}
	for _, resp := range eff.Responses {
		n.cl.rec.Responded(resp, int64(n.cl.sched.Now()))
	}
	for _, notice := range eff.StableNotices {
		n.cl.rec.StableNoticed(notice, int64(n.cl.sched.Now()))
	}
	for _, lost := range eff.Lost {
		n.cl.rec.ResultLost(lost.Dot, int64(n.cl.sched.Now()))
	}
}

// onRBDeliverBatch feeds an RB delivery envelope into the replica: the
// whole batch becomes one schedule adjustment.
func (n *node) onRBDeliverBatch(ms []rb.Message) {
	if n.crashed {
		// A local dispatch scheduled just before the crash: the messages
		// are lost with the rest of the volatile state (the resync
		// handshake re-fetches them on recovery).
		return
	}
	n.reqBuf = n.reqBuf[:0]
	for _, m := range ms {
		if r, ok := m.Payload.(core.Req); ok {
			n.reqBuf = append(n.reqBuf, r)
		}
	}
	if len(n.reqBuf) == 0 {
		return
	}
	eff := n.takeEff()
	defer n.putEff(eff)
	if err := n.replica.RBDeliverBatch(n.reqBuf, eff); err != nil {
		panic(fmt.Sprintf("cluster: RBDeliver on %d: %v", n.id, err))
	}
	n.route(*eff)
	n.scheduleStep()
	n.retryParked()
}

// onTOBDeliverBatch feeds a TOB cascade into the replica and records the
// global tobNos.
func (n *node) onTOBDeliverBatch(first int64, ms []tob.Message) {
	if n.crashed {
		// Unreachable by construction: the TOB gate only advances on
		// network deliveries, which simnet withholds from crashed nodes.
		// Losing a gate-delivered commit would desynchronize the replica
		// from the gate forever, so fail loudly rather than drop.
		panic(fmt.Sprintf("cluster: TOB delivery on crashed replica %d", n.id))
	}
	n.reqBuf = n.reqBuf[:0]
	for i, m := range ms {
		if r, ok := m.Payload.(core.Req); ok {
			n.cl.rec.TOBDelivered(r.Dot, first+int64(i))
			n.reqBuf = append(n.reqBuf, r)
		}
	}
	if len(n.reqBuf) == 0 {
		return
	}
	eff := n.takeEff()
	defer n.putEff(eff)
	if err := n.replica.TOBDeliverBatch(n.reqBuf, eff); err != nil {
		panic(fmt.Sprintf("cluster: TOBDeliver on %d: %v", n.id, err))
	}
	n.route(*eff)
	n.scheduleStep()
	n.retryParked()
	n.maybeCheckpoint()
}

// scheduleStep arranges the next internal activation after procDelay,
// unless in manual mode or one is already pending. One activation executes
// a single internal event, or up to Config.StepBatch of them when batched
// stepping is enabled.
func (n *node) scheduleStep() {
	if n.cl.cfg.ManualStepping || n.stepPending || n.crashed || !n.replica.HasInternalWork() {
		return
	}
	n.stepPending = true
	n.cl.sched.After(n.procDelay, func() {
		n.stepPending = false
		if n.crashed {
			return // activation outlived the process
		}
		batch := n.cl.cfg.StepBatch
		if batch < 1 {
			batch = 1
		}
		eff := n.takeEff()
		defer n.putEff(eff)
		if _, err := n.replica.StepN(batch, eff); err != nil {
			panic(fmt.Sprintf("cluster: step on %d: %v", n.id, err))
		}
		n.route(*eff)
		n.scheduleStep()
		n.retryParked()
	})
}
