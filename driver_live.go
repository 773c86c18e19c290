package bayou

import (
	"context"
	"fmt"
	"time"

	"bayou/internal/core"
	"bayou/internal/livenet"
	"bayou/internal/record"
	"bayou/internal/spec"
)

// liveTimeout bounds every internal wait of the live driver (reads, stats,
// quiescence). A healthy in-process deployment settles in milliseconds;
// hitting this limit indicates a real defect, not a slow run.
const liveTimeout = 30 * time.Second

// liveDriver adapts the internal/livenet controller — primary-commit total
// order over in-process goroutine replicas or over bayou-node processes —
// to the Driver interface. Progress is continuous and in the background:
// Run sleeps instead of stepping, Settle waits for quiescence instead of
// driving it. Crash, recover, partition and heal are all supported;
// environment controls the substrate cannot express (Ω manipulation, link
// and per-replica timing) return ErrUnsupported.
type liveDriver struct {
	c *livenet.Controller
}

// newLiveDriver builds the live substrate from validated options. With
// WithPeers the replicas are separate OS processes (cmd/bayou-node) reached
// over TCP and this process is the controller; otherwise the replicas run
// as in-process goroutines over channel links.
func newLiveDriver(o config) (*liveDriver, error) {
	if len(o.ClockSlowdown) > 0 {
		return nil, fmt.Errorf("%w: per-replica clock skew (WithClockSlowdown) needs the deterministic simulator", ErrUnsupported)
	}
	if o.Latency != 0 {
		return nil, fmt.Errorf("%w: link latency (WithLatency) needs the deterministic simulator", ErrUnsupported)
	}
	if len(o.Peers) > 0 {
		// The node processes own variant and checkpoint cadence via their
		// flags; the controller only carries the lease gate.
		inner, err := livenet.NewRemote(livenet.RemoteConfig{
			Addrs:       o.Peers,
			LeaderLease: o.LeaderLease,
		})
		if err != nil {
			return nil, err
		}
		return &liveDriver{c: inner}, nil
	}
	// The live substrate always totally orders through the replica-0
	// sequencer, so UsePrimaryTOB is already true and Seed has no effect.
	inner := livenet.NewFromConfig(livenet.Config{
		N:               o.Replicas,
		Variant:         o.Variant,
		CheckpointEvery: o.CheckpointEvery,
		LeaderLease:     o.LeaderLease,
	})
	return &liveDriver{c: inner}, nil
}

func (d *liveDriver) Replicas() int              { return d.c.Replicas() }
func (d *liveDriver) Recorder() *record.Recorder { return d.c.Recorder() }

func (d *liveDriver) Invoke(sess core.SessionID, replica int, op spec.Op, level core.Level) (*record.Call, error) {
	return d.c.Invoke(sess, replica, op, level)
}

func (d *liveDriver) Coverage(sess core.SessionID, replica int) (bool, error) {
	return d.c.SessionCovered(sess, replica, liveTimeout)
}

func (d *liveDriver) Settle() error { return d.c.Quiesce(liveTimeout) }

// Run lets the background goroutines work for about d milliseconds (the
// simulator's tick granularity mapped coarsely onto real time, capped so a
// script written for virtual time cannot stall a live run for minutes).
func (d *liveDriver) Run(t int64) {
	const runCapMillis = 2_000
	if t > runCapMillis {
		t = runCapMillis
	}
	if t > 0 {
		time.Sleep(time.Duration(t) * time.Millisecond)
	}
}

func (d *liveDriver) AwaitCall(ctx context.Context, call *record.Call) error {
	return call.WaitDone(ctx)
}

// ElectLeader accepts the sequencer replica 0 (total order is always up on
// the live substrate) and rejects everything else: primary commit cannot
// move the leader.
func (d *liveDriver) ElectLeader(replica int) error {
	if replica == 0 {
		return nil
	}
	return fmt.Errorf("%w: live total order is sequenced by replica 0 (cannot elect %d)", ErrUnsupported, replica)
}

func (d *liveDriver) Destabilize() error {
	return fmt.Errorf("%w: live Ω cannot be destabilized", ErrUnsupported)
}

func (d *liveDriver) Faults() FaultPlane { return liveFaults{d.c} }

// liveFaults is the controller's own fault plane — crashes stop (and
// recoveries restart) a replica's protocol loop around its durable
// snapshot, partitions park cross-cell traffic until heal — plus the one
// control neither carrier has a concept for: link timing.
type liveFaults struct{ *livenet.Controller }

func (liveFaults) SlowLink(a, b int, factor int64) error {
	return fmt.Errorf("%w: the live substrate has no link timing to degrade", ErrUnsupported)
}

func (d *liveDriver) Read(replica int, register string) (spec.Value, error) {
	return d.c.Read(replica, register, liveTimeout)
}

func (d *liveDriver) Committed(replica int) ([]core.Req, error) {
	return d.c.Committed(replica, liveTimeout)
}

func (d *liveDriver) Stats() (map[core.ReplicaID]core.Stats, error) {
	return d.c.Stats(liveTimeout)
}

func (d *liveDriver) Compact() (int, error)    { return d.c.Compact(liveTimeout) }
func (d *liveDriver) Checkpoint() (int, error) { return d.c.Checkpoint(liveTimeout) }
func (d *liveDriver) MarkStable()              { d.c.Recorder().MarkStable() }

func (d *liveDriver) BaseLen(replica int) (int, error) {
	return d.c.BaseLen(replica, liveTimeout)
}

func (d *liveDriver) Close() error {
	d.c.Stop()
	return nil
}
