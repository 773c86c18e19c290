package bayou

import (
	"context"
	"errors"
	"fmt"

	"bayou/internal/cluster"
	"bayou/internal/core"
	"bayou/internal/record"
	"bayou/internal/sim"
	"bayou/internal/spec"
)

// ErrUnsupported is returned for environment controls a driver cannot
// express (e.g. Ω switches, link slowdown or electing another leader on the
// live driver; socket peers on the simulator).
var ErrUnsupported = errors.New("bayou: operation not supported by this driver")

// Driver is the substrate a Cluster runs on. There are two drivers and three
// deployments: the deterministic simulator (New), and the live controller
// (NewLive) over goroutine replicas in this process or, with WithPeers, over
// bayou-node processes reached by TCP. All expose the same operations and
// feed the same record.Recorder — which also holds the session table, so
// sessions are minted and re-bound there, not here — and therefore produce
// comparable histories, checker verdicts and watch streams.
//
// The interface references internal types, so it is satisfiable only from
// within this module (a sealed interface): it exists to keep the façade
// honest about what a substrate must provide, not as a third-party
// extension point yet.
type Driver interface {
	// Replicas returns the deployment size.
	Replicas() int
	// Recorder exposes the shared observation layer and session table.
	Recorder() *record.Recorder
	// Invoke submits an operation on a session at an explicit target
	// replica; the returned call fills in as the deployment makes
	// progress. For guarantee-carrying sessions the target must prove
	// coverage of the session's vectors first: until it can, the call
	// parks (WaitForCoverage) or the invocation fails with ErrGuarantee
	// (FailFast).
	Invoke(sess core.SessionID, replica int, op spec.Op, level core.Level) (*record.Call, error)
	// Coverage reports whether the replica's state currently dominates
	// the session's guarantee vectors — the failover-target probe.
	Coverage(sess core.SessionID, replica int) (bool, error)
	// Settle drives the deployment to quiescence: every message
	// delivered, every replica passive, every call terminal.
	Settle() error
	// Run advances the deployment by d ticks of driver time (virtual
	// ticks on the simulator; a bounded real-time sleep on live).
	Run(d int64)
	// AwaitCall blocks until the call's response arrives, making whatever
	// progress the substrate requires, or until ctx is done.
	AwaitCall(ctx context.Context, call *record.Call) error
	// ElectLeader stabilizes the failure detector Ω on a replica.
	ElectLeader(replica int) error
	// Destabilize clears Ω (the asynchronous-run switch).
	Destabilize() error
	// Faults exposes the substrate's fault plane: crashes, recoveries,
	// partitions, link degradation. Controls a substrate cannot express
	// return ErrUnsupported.
	Faults() FaultPlane
	// Read peeks at a register of a replica's current state.
	Read(replica int, register string) (spec.Value, error)
	// Committed snapshots a replica's committed order.
	Committed(replica int) ([]core.Req, error)
	// Stats aggregates replica cost counters.
	Stats() (map[core.ReplicaID]core.Stats, error)
	// Compact runs log compaction everywhere, returning freed undo entries.
	Compact() (int, error)
	// Checkpoint checkpoints every live replica's stable state, truncating
	// its logs to the suffix; returns the total committed entries truncated.
	Checkpoint() (int, error)
	// BaseLen reports a replica's absolute checkpointed-prefix length (its
	// resident committed log holds only positions past it).
	BaseLen(replica int) (int, error)
	// MarkStable records the quiescence cutoff for the history checkers.
	MarkStable()
	// Close releases the substrate (stops goroutines on live; no-op on sim).
	Close() error
}

// FaultPlane scripts failures through the public API. Every deployment
// implements it: the simulator maps faults onto simnet and the cluster's
// crash–recovery machinery; the live controller keeps one fault view
// (partition cells, crashed set) and pushes it to its carrier — in-process
// cross-cell channel traffic parks in the fabric, over sockets each node
// process parks its own cross-cell frames — while a crash drops the
// replica automaton's volatile state in place. Whatever the deployment, a
// recovering replica restores its durable image (committed prefix, dot
// counter, client continuations), refetches the tentative suffix via RB
// retransmission, and catches up on the commits it slept through — so the
// same fault script yields comparable histories on all three.
type FaultPlane interface {
	// Crash silently crashes a replica: volatile state is lost, traffic
	// toward it is dropped, sessions bound to it are rejected. (The live
	// substrate cannot crash its sequencer, replica 0.)
	Crash(replica int) error
	// Recover restarts a crashed replica from its durable snapshot and
	// resynchronizes it with the deployment.
	Recover(replica int) error
	// Partition splits the network into cells; cross-cell traffic is held
	// (reliable links retransmit) until Heal.
	Partition(cells ...[]int) error
	// Heal removes all partitions, releasing held traffic.
	Heal() error
	// SlowLink multiplies the latency between two replicas by factor
	// (factor 1 restores normal speed). Simulation only.
	SlowLink(a, b int, factor int64) error
}

// simDriver adapts internal/cluster — the deterministic discrete-event
// simulation — to the Driver interface.
type simDriver struct {
	c *cluster.Cluster
	n int
}

// defaultLeaseTicks is the leader-lease duration WithLeaderLease installs
// on the simulator: long enough (at default link latency 10) to amortize
// the quorum grant over many renewals, short enough that a partitioned
// leader stops serving strong reads within a few hundred simulated ticks.
const defaultLeaseTicks = 2000

// newSimDriver builds the simulated substrate from validated options.
func newSimDriver(o config) (*simDriver, error) {
	if len(o.Peers) > 0 {
		return nil, fmt.Errorf("%w: socket peers (WithPeers) need the live driver", ErrUnsupported)
	}
	cfg := cluster.Config{
		N:               o.Replicas,
		Variant:         o.Variant,
		Seed:            o.Seed,
		StepBatch:       o.StepBatch,
		Latency:         sim.Time(o.Latency),
		CheckpointEvery: o.CheckpointEvery,
	}
	if o.LeaderLease {
		cfg.LeaseTicks = defaultLeaseTicks
	}
	if o.UsePrimaryTOB {
		cfg.TOB = cluster.PrimaryTOB
	}
	if len(o.ClockSlowdown) > 0 {
		cfg.ClockSlowdown = make(map[core.ReplicaID]int64, len(o.ClockSlowdown))
		for id, d := range o.ClockSlowdown {
			cfg.ClockSlowdown[core.ReplicaID(id)] = d
		}
	}
	inner, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return &simDriver{c: inner, n: o.Replicas}, nil
}

func (d *simDriver) Replicas() int              { return d.n }
func (d *simDriver) Recorder() *record.Recorder { return d.c.Recorder() }

func (d *simDriver) Invoke(sess core.SessionID, replica int, op spec.Op, level core.Level) (*record.Call, error) {
	return d.c.InvokeSessionAt(sess, core.ReplicaID(replica), op, level)
}

func (d *simDriver) Coverage(sess core.SessionID, replica int) (bool, error) {
	return d.c.SessionCovered(sess, core.ReplicaID(replica))
}

func (d *simDriver) Settle() error { return d.c.Settle(0) }
func (d *simDriver) Run(t int64)   { d.c.RunFor(sim.Time(t)) }

// AwaitCall advances the simulation until the call completes. Waiting on a
// single simulator thread cannot block: the driver *is* the progress, so it
// runs the scheduler in slices and fails if the event queue empties with
// the call still pending (e.g. a strong operation in an asynchronous run —
// exactly the Theorem 3 situation, which no amount of waiting resolves).
func (d *simDriver) AwaitCall(ctx context.Context, call *record.Call) error {
	for !call.Done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if d.c.Scheduler().Pending() == 0 {
			if (call.Dot() == core.Dot{}) {
				return fmt.Errorf("bayou: session %d's invocation is parked on its guarantee coverage and the simulation is quiescent (the demanded state cannot reach the target replica — heal the partition, recover the replica, or elect a leader)", call.Session())
			}
			return fmt.Errorf("bayou: call %s cannot complete: simulation is quiescent (no leader elected, an asynchronous run, or the call's replica is crashed)", call.Dot())
		}
		d.c.RunFor(100)
	}
	return nil
}

func (d *simDriver) ElectLeader(replica int) error {
	if replica < 0 || replica >= d.n {
		return fmt.Errorf("bayou: no replica %d", replica)
	}
	d.c.StabilizeOmega(core.ReplicaID(replica))
	return nil
}

func (d *simDriver) Destabilize() error {
	d.c.DestabilizeOmega()
	return nil
}

func (d *simDriver) Faults() FaultPlane { return simFaults{d} }

// simFaults maps the fault plane onto simnet and the simulated cluster's
// crash–recovery machinery.
type simFaults struct {
	d *simDriver
}

func (f simFaults) check(replica int) error {
	if replica < 0 || replica >= f.d.n {
		return fmt.Errorf("bayou: no replica %d", replica)
	}
	return nil
}

func (f simFaults) Crash(replica int) error {
	if err := f.check(replica); err != nil {
		return err
	}
	return f.d.c.Crash(core.ReplicaID(replica))
}

func (f simFaults) Recover(replica int) error {
	if err := f.check(replica); err != nil {
		return err
	}
	return f.d.c.Recover(core.ReplicaID(replica))
}

func (f simFaults) Partition(cells ...[]int) error {
	conv := make([][]core.ReplicaID, len(cells))
	for i, cell := range cells {
		for _, id := range cell {
			if err := f.check(id); err != nil {
				return err
			}
			conv[i] = append(conv[i], core.ReplicaID(id))
		}
	}
	f.d.c.Partition(conv...)
	return nil
}

func (f simFaults) Heal() error {
	f.d.c.Heal()
	return nil
}

func (f simFaults) SlowLink(a, b int, factor int64) error {
	if err := f.check(a); err != nil {
		return err
	}
	if err := f.check(b); err != nil {
		return err
	}
	if factor < 1 {
		return fmt.Errorf("bayou: SlowLink factor %d, want ≥ 1", factor)
	}
	f.d.c.SlowLink(core.ReplicaID(a), core.ReplicaID(b), factor)
	return nil
}

func (d *simDriver) Read(replica int, register string) (spec.Value, error) {
	if replica < 0 || replica >= d.n {
		return nil, fmt.Errorf("bayou: no replica %d", replica)
	}
	return d.c.Replica(core.ReplicaID(replica)).Read(register), nil
}

func (d *simDriver) Committed(replica int) ([]core.Req, error) {
	if replica < 0 || replica >= d.n {
		return nil, fmt.Errorf("bayou: no replica %d", replica)
	}
	return d.c.Replica(core.ReplicaID(replica)).Committed(), nil
}

func (d *simDriver) Stats() (map[core.ReplicaID]core.Stats, error) { return d.c.Stats(), nil }
func (d *simDriver) Compact() (int, error)                         { return d.c.CompactAll(), nil }
func (d *simDriver) Checkpoint() (int, error)                      { return d.c.Checkpoint() }
func (d *simDriver) MarkStable()                                   { d.c.MarkStable() }
func (d *simDriver) Close() error                                  { return nil }

func (d *simDriver) BaseLen(replica int) (int, error) {
	if replica < 0 || replica >= d.n {
		return 0, fmt.Errorf("bayou: no replica %d", replica)
	}
	return d.c.Replica(core.ReplicaID(replica)).BaseLen(), nil
}

// Sim exposes the underlying simulated cluster when the driver is the
// simulator (scenario-style schedule control: manual stepping, network
// blocks). It returns nil on other drivers.
func (c *Cluster) Sim() *cluster.Cluster {
	if d, ok := c.drv.(*simDriver); ok {
		return d.c
	}
	return nil
}
