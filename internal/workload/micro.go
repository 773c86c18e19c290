package workload

// The protocol micro-benchmark workloads live here so that the root
// package's benchmarks and allocation ceilings (bench_test.go) and the
// core.* probes of the bench/ module measure the exact same thing and cannot
// drift apart.

import (
	"errors"
	"fmt"

	"bayou/internal/cluster"
	"bayou/internal/core"
	"bayou/internal/paxos"
	"bayou/internal/record"
	"bayou/internal/spec"
	"bayou/internal/txn"
)

// MicroWeakInvoke is the Algorithm 2 weak hot path: ops rounds of immediate
// execute + rollback + broadcast effects on a fresh replica, each request
// TOB-committed and drained before the next (the bounded-wait-free fast
// path, BenchmarkWeakInvokeModified).
func MicroWeakInvoke(ops int) error {
	r := core.NewReplica(0, core.NoCircularCausality, func() int64 { return 0 })
	for k := 0; k < ops; k++ {
		eff, err := r.Invoke(spec.Inc("c", 1), false)
		if err != nil {
			return err
		}
		for _, req := range eff.TOBCast {
			if _, err := r.TOBDeliver(req); err != nil {
				return err
			}
		}
		if _, err := r.Drain(); err != nil {
			return err
		}
	}
	return nil
}

// MicroMultiSession is the session-fan-in hot path: `sessions` concurrent
// sequential sessions all bound to replica 0 of a three-replica simulated
// cluster, each issuing `ops` weak increments round-robin, then one settle.
// It measures what the per-replica session multiplexing costs as the
// sessions dimension grows (BenchmarkMultiSessionInvoke).
func MicroMultiSession(sessions, ops int) error {
	c, err := cluster.New(cluster.Config{N: 3, Variant: core.NoCircularCausality, Seed: 404, StepBatch: 8})
	if err != nil {
		return err
	}
	c.StabilizeOmega(0)
	ids := make([]core.SessionID, sessions)
	for i := range ids {
		ids[i] = c.Recorder().OpenSession(0)
	}
	for k := 0; k < ops; k++ {
		for _, s := range ids {
			if _, err := c.InvokeSessionAt(s, 0, spec.Inc("c", 1), core.Weak); err != nil {
				return err
			}
		}
		c.RunFor(5)
	}
	return c.Settle(0)
}

// MicroGuaranteeSession is MicroMultiSession with every session carrying
// ReadYourWrites|MonotonicReads: the same deployment, the same invocation
// pattern, plus the coverage gate on every invoke. Pairing it with
// MicroMultiSession at the same session count (BenchmarkGuaranteeCoverage
// against BenchmarkMultiSessionInvoke) pins what guarantee enforcement
// costs on the weak path as the sessions dimension grows. An invoke
// that lands while the session's previous write is still parked on its own
// coverage retries after letting the deployment run — that wait is part of
// the price being measured.
func MicroGuaranteeSession(sessions, ops int) error {
	c, err := cluster.New(cluster.Config{N: 3, Variant: core.NoCircularCausality, Seed: 404, StepBatch: 8})
	if err != nil {
		return err
	}
	c.StabilizeOmega(0)
	ids := make([]core.SessionID, sessions)
	for i := range ids {
		ids[i] = c.Recorder().OpenSession(0)
		c.Recorder().SetGuarantees(ids[i], core.ReadYourWrites|core.MonotonicReads, core.WaitForCoverage)
	}
	for k := 0; k < ops; k++ {
		for _, s := range ids {
			for try := 0; ; try++ {
				_, err := c.InvokeSessionAt(s, 0, spec.Inc("c", 1), core.Weak)
				if err == nil {
					break
				}
				if !errors.Is(err, record.ErrSessionBusy) || try > 10_000 {
					return err
				}
				c.RunFor(5)
			}
		}
		c.RunFor(5)
	}
	return c.Settle(0)
}

// SnapshotFixture is a prebuilt single-replica deployment with a long
// committed history, used by the snapshot/recovery benchmarks: building the
// history is O(n) setup, while the measured operations — Snapshot and
// RestoreReplica — must stay O(suffix) when checkpointing is on.
type SnapshotFixture struct {
	Replica *core.Replica
	Snap    core.Snapshot
}

// NewSnapshotFixture invokes, commits and executes `history` weak increments
// on a fresh Algorithm 2 replica, checkpointing after every `every` commits
// (0 = never checkpoint — the unbounded-log baseline), then captures the
// durable snapshot.
func NewSnapshotFixture(history, every int) (*SnapshotFixture, error) {
	r := core.NewReplica(0, core.NoCircularCausality, func() int64 { return 0 })
	for k := 0; k < history; k++ {
		eff, err := r.Invoke(spec.Inc("c"+string(rune('a'+k%16)), 1), false)
		if err != nil {
			return nil, err
		}
		for _, req := range eff.TOBCast {
			if _, err := r.TOBDeliver(req); err != nil {
				return nil, err
			}
		}
		if _, err := r.Drain(); err != nil {
			return nil, err
		}
		if every > 0 && r.CommittedLen()-r.BaseLen() >= every {
			if _, err := r.Checkpoint(r.CommittedLen()); err != nil {
				return nil, err
			}
		}
	}
	return &SnapshotFixture{Replica: r, Snap: r.Snapshot()}, nil
}

// Snapshot takes one durable snapshot of the fixture's replica — the crash
// path both drivers run, measured per call.
func (f *SnapshotFixture) Snapshot() core.Snapshot { return f.Replica.Snapshot() }

// Restore rebuilds a replica from the fixture's snapshot — the recovery
// path, measured per call. It returns an error if the restored replica does
// not reach the snapshot's committed length.
func (f *SnapshotFixture) Restore() error {
	var eff core.Effects
	restored, err := core.RestoreReplica(f.Snap, func() int64 { return 0 }, false, &eff)
	if err != nil {
		return err
	}
	if restored.CommittedLen() != f.Snap.CommittedLen() {
		return errors.New("workload: restored replica lost committed history")
	}
	return nil
}

// StrongBurstSessions is how many concurrent sequential sessions the
// strong burst keeps open against the leader. It deliberately exceeds
// the default pipeline window (8): the overflow is what accumulates in
// the proposer queue and rides shared slots, so the burst exercises
// batching and pipelining together rather than just the open window.
const StrongBurstSessions = 32

// strongBurstLease is the lease duration the burst installs when asked
// for lease reads (matches the façade's WithLeaderLease default scale).
const strongBurstLease = 2000

// StrongBurstStats is the deterministic evidence MicroStrongBurstStats
// returns alongside "it finished": the leader's consensus counters and
// the simulated network's message tally, the quantities the scaling test
// pins the ≥10x batching/pipelining win with.
type StrongBurstStats struct {
	Writes int // strong updates committed through consensus
	Reads  int // strong read-only ops issued after the write phase
	// Leader is the leader's consensus counter snapshot after the run:
	// Proposals/DecidedSlots expose the batching ratio, Prepares the
	// Phase-1 skip, BatchedValues the values that rode shared slots.
	Leader paxos.Counters
	// ReadProposals counts consensus proposals issued during the read
	// phase — zero when every read was served under the lease.
	ReadProposals int64
	// NetSent is the total simulated messages sent over the whole run.
	NetSent int64
	// Ticks is the simulated time the whole burst took. Identical op
	// counts divided by Ticks is the deterministic throughput the scaling
	// test compares across configurations — wall-clock-free, so the ≥10x
	// pin cannot flake on a loaded CI machine.
	Ticks int64
}

// MicroStrongBurst is the strong hot path: a three-replica simulated
// cluster with a stable leader, StrongBurstSessions concurrent sessions
// pushing `ops` strong increments through consensus (slot batching and
// pipelining collapse them into few decided slots), then `ops` strong
// reads served locally under the leader lease (BenchmarkStrongBurst in the
// root package).
func MicroStrongBurst(ops int) error {
	_, err := MicroStrongBurstStats(ops, ops, 0, 0, true)
	return err
}

// MicroStrongBurstStats runs the strong burst with explicit knobs —
// pipeline/batchCap zero means the Paxos defaults, batchCap 1 with
// pipeline 1 restores the classic one-value-one-slot baseline — and
// returns the counter evidence. The write phase keeps every session's
// one outstanding strong call in flight and lets the deployment run only
// when the whole fan is awaiting commits; the read phase issues strong
// read-only ops that a held lease serves locally with zero proposal
// rounds (lease=false forces them through consensus for comparison).
func MicroStrongBurstStats(writes, reads, pipeline, batchCap int, lease bool) (StrongBurstStats, error) {
	var st StrongBurstStats
	ccfg := cluster.Config{
		N: 3, Variant: core.NoCircularCausality, Seed: 404, StepBatch: 8,
		PipelineDepth: pipeline, BatchCap: batchCap,
	}
	if lease {
		ccfg.LeaseTicks = strongBurstLease
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		return st, err
	}
	c.StabilizeOmega(0)
	ids := make([]core.SessionID, StrongBurstSessions)
	for i := range ids {
		ids[i] = c.Recorder().OpenSession(0)
	}
	phase := func(n int, op spec.Op) error {
		issued := 0
		for issued < n {
			progress := false
			for _, s := range ids {
				if issued >= n {
					break
				}
				if _, err := c.InvokeSessionAt(s, 0, op, core.Strong); err != nil {
					if errors.Is(err, record.ErrSessionBusy) {
						continue
					}
					return err
				}
				issued++
				progress = true
			}
			if !progress {
				c.RunFor(5)
			}
		}
		return c.Settle(0)
	}
	if err := phase(writes, spec.Inc("c", 1)); err != nil {
		return st, err
	}
	if lease {
		if err := waitLease(c); err != nil {
			return st, err
		}
	}
	beforeReads := c.PaxosCounters(0)
	if err := phase(reads, spec.Get("c")); err != nil {
		return st, err
	}
	after := c.PaxosCounters(0)
	st = StrongBurstStats{
		Writes:        writes,
		Reads:         reads,
		Leader:        after,
		ReadProposals: after.Proposals - beforeReads.Proposals,
		NetSent:       c.NetStats().Sent,
		Ticks:         int64(c.Scheduler().Now()),
	}
	return st, nil
}

// LeaseFixture is a prebuilt leased deployment for the per-read
// benchmark: a three-replica cluster whose leader holds the ordering
// lease over a committed history, with one idle session bound to it.
type LeaseFixture struct {
	C    *cluster.Cluster
	Sess core.SessionID
}

// NewLeaseFixture builds the deployment and commits `history` strong
// increments so the lease reads have a non-trivial committed prefix to
// serve from.
func NewLeaseFixture(history int) (*LeaseFixture, error) {
	c, err := cluster.New(cluster.Config{
		N: 3, Variant: core.NoCircularCausality, Seed: 404, StepBatch: 8,
		LeaseTicks: strongBurstLease,
	})
	if err != nil {
		return nil, err
	}
	c.StabilizeOmega(0)
	sess := c.Recorder().OpenSession(0)
	for k := 0; k < history; k++ {
		if _, err := c.InvokeSessionAt(sess, 0, spec.Inc("c", 1), core.Strong); err != nil {
			return nil, err
		}
		if err := c.Settle(0); err != nil {
			return nil, err
		}
	}
	if err := waitLease(c); err != nil {
		return nil, err
	}
	return &LeaseFixture{C: c, Sess: sess}, nil
}

// waitLease runs the deployment until the leader holds the ordering
// lease. The lease may have lapsed in simulated time while a long write
// phase settled; querying TOBLeaseHeld triggers the renewal request, and
// a few ticks deliver the quorum's grants. Once held, the lease cannot
// lapse under a read-only load: lease reads are served synchronously
// without advancing simulated time.
func waitLease(c *cluster.Cluster) error {
	for try := 0; !c.TOBLeaseHeld(0); try++ {
		if try > 1000 {
			return errors.New("workload: leader did not acquire the lease")
		}
		c.RunFor(20)
	}
	return nil
}

// Write commits one strong increment through consensus and settles — the
// measured region of BenchmarkStrongCommitLatency (the batched/pipelined
// proposal path at depth one, since a sequential session has exactly one
// strong call outstanding).
func (f *LeaseFixture) Write() error {
	if _, err := f.C.InvokeSessionAt(f.Sess, 0, spec.Inc("c", 1), core.Strong); err != nil {
		return err
	}
	return f.C.Settle(0)
}

// Read serves one strong read under the lease — the measured region of
// BenchmarkLeaseRead. A read that fails to complete synchronously (the
// lease lapsed, or it fell back to consensus) is an error: the benchmark
// must measure the local path, not a mixture.
func (f *LeaseFixture) Read() error {
	call, err := f.C.InvokeSessionAt(f.Sess, 0, spec.Get("c"), core.Strong)
	if err != nil {
		return err
	}
	if !call.Done() {
		return fmt.Errorf("workload: lease read %s not served locally", call.Dot())
	}
	return nil
}

// transferTxn is the composite unit the txn micros push through the
// machinery: a guarded withdraw plus a deposit, the canonical two-op
// atomic transfer (one dot, one schedule entry, one undo span).
func transferTxn() txn.Txn {
	return txn.New().Require(spec.Withdraw("a", 1)).Do(spec.Deposit("b", 1)).Txn()
}

// MicroTxnWeakRebase is the weak transactional rebase hot path: a funded
// account, one weak transfer txn installed at a far-future timestamp, then
// ops remote deliveries with ever-older timestamps — each rolls the whole
// unit back across its undo span and re-executes it atomically at its new
// position (BenchmarkTxnWeakRebase). It is MicroRollbackReexecute with the
// rolled-back suffix being a multi-op unit instead of a single op, so the
// pair pins what the span machinery adds to the rebase loop.
func MicroTxnWeakRebase(ops int) error {
	r := core.NewReplica(0, core.Original, func() int64 { return 1 << 40 })
	fund := core.Req{
		Timestamp: 0,
		Dot:       core.Dot{Replica: 1, EventNo: 1},
		Op:        spec.Deposit("a", int64(ops)+1),
	}
	if _, err := r.RBDeliver(fund); err != nil {
		return err
	}
	if _, err := r.Drain(); err != nil {
		return err
	}
	if _, err := r.Invoke(transferTxn(), false); err != nil {
		return err
	}
	if _, err := r.Drain(); err != nil {
		return err
	}
	for k := 0; k < ops; k++ {
		req := core.Req{
			Timestamp: int64(k + 1), // always older than the txn
			Dot:       core.Dot{Replica: 1, EventNo: int64(k + 2)},
			Op:        spec.Inc("c", 1),
		}
		if _, err := r.RBDeliver(req); err != nil {
			return err
		}
		if _, err := r.Drain(); err != nil {
			return err
		}
	}
	return nil
}

// MicroTxnStrongCommit is the strong transactional hot path: a three-replica
// simulated cluster with a stable leader and one session committing ops
// strong transfer txns, each unit riding one consensus slot and settling
// before the next (BenchmarkTxnStrongCommit). An aborted transfer is an
// error — the account is funded for exactly ops transfers, so the benchmark
// measures the commit path, not a mixture with the abort path.
func MicroTxnStrongCommit(ops int) error {
	c, err := cluster.New(cluster.Config{N: 3, Variant: core.NoCircularCausality, Seed: 404, StepBatch: 8})
	if err != nil {
		return err
	}
	c.StabilizeOmega(0)
	sess := c.Recorder().OpenSession(0)
	if _, err := c.InvokeSessionAt(sess, 0, spec.Deposit("a", int64(ops)), core.Strong); err != nil {
		return err
	}
	if err := c.Settle(0); err != nil {
		return err
	}
	for k := 0; k < ops; k++ {
		call, err := c.InvokeSessionAt(sess, 0, transferTxn(), core.Strong)
		if err != nil {
			return err
		}
		if err := c.Settle(0); err != nil {
			return err
		}
		if call.Aborted() {
			return fmt.Errorf("workload: strong transfer %d aborted with funds available", k)
		}
	}
	return nil
}

// MicroRollbackReexecute is the reordering hot path: a local request with a
// far-future timestamp, then ops remote deliveries with ever-older
// timestamps, each forcing a rollback and re-execution
// (BenchmarkRollbackReexecute).
func MicroRollbackReexecute(ops int) error {
	r := core.NewReplica(0, core.Original, func() int64 { return 1 << 40 })
	if _, err := r.Invoke(spec.Append("local"), false); err != nil {
		return err
	}
	if _, err := r.Drain(); err != nil {
		return err
	}
	for k := 0; k < ops; k++ {
		req := core.Req{
			Timestamp: int64(k + 1), // always older than the local op
			Dot:       core.Dot{Replica: 1, EventNo: int64(k + 1)},
			Op:        spec.Inc("c", 1),
		}
		if _, err := r.RBDeliver(req); err != nil {
			return err
		}
		if _, err := r.Drain(); err != nil {
			return err
		}
	}
	return nil
}
