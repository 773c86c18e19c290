package bayou

import (
	"fmt"
)

// Option configures a cluster at construction. Options are applied in
// order; later options win. The set of options is fixed by this package
// (the carrier struct is unexported): construct clusters with New or
// NewLive plus the With* functions below.
type Option func(*config) error

// config is the internal carrier the functional options write into.
type config struct {
	// Replicas is the number of replicas (default 3).
	Replicas int
	// Variant selects Algorithm 1 (Original) or 2 (Modified).
	// VariantDefault resolves to Modified; any other unknown value is
	// rejected with an error.
	Variant Variant
	// Seed makes simulated runs reproducible (default 1). The live driver
	// ignores it: goroutine scheduling is inherently nondeterministic.
	Seed int64
	// UsePrimaryTOB selects the original Bayou primary-commit scheme
	// instead of Paxos; replica 0 becomes the (non-fault-tolerant)
	// primary. The live driver always uses primary commit.
	UsePrimaryTOB bool
	// ClockSlowdown maps replica ids to a clock divisor (§2.3's skewed
	// clock experiment; simulation only).
	ClockSlowdown map[int]int64
	// StepBatch caps how many internal events (rollbacks/executions) one
	// scheduled activation of a replica executes. The default 1 is the
	// paper-faithful one-event-per-tick discipline; throughput-oriented
	// deployments raise it so Settle drains backlogs in batches (see
	// experiment E13). The live driver drains opportunistically and
	// ignores it.
	StepBatch int
	// Latency is the simulated link latency in ticks (default 10; fault
	// scripts that reason about message timing set it explicitly). The
	// live driver has no link timing and rejects it.
	Latency int64
	// CheckpointEvery makes every replica checkpoint its stable state once
	// it has accumulated that many commits past its last checkpoint (0
	// disables automatic checkpointing). Both drivers support it.
	CheckpointEvery int
	// LeaderLease lets the total-order leader serve strong read-only
	// operations locally from its committed prefix with zero proposal
	// rounds. On the simulator's Paxos TOB the lease is quorum-granted and
	// clock-fenced; on the live driver (and the primary-commit simulator
	// variant) the sequencer is a degenerate permanent leaseholder.
	LeaderLease bool
	// Peers, when set, makes NewLive drive replicas that run as separate
	// OS processes (cmd/bayou-node) at these addresses, over TCP, instead
	// of spawning in-process goroutine replicas. The listed order is the
	// replica-id order and its length is the deployment size (Replicas is
	// overridden). NewLive only; the simulator rejects it.
	Peers []string
}

// WithReplicas sets the number of replicas (default 3).
func WithReplicas(n int) Option {
	return func(o *config) error {
		if n < 1 {
			return fmt.Errorf("bayou: WithReplicas(%d): need at least one replica", n)
		}
		o.Replicas = n
		return nil
	}
}

// WithVariant selects the protocol variant: Original (Algorithm 1) or
// Modified (Algorithm 2). VariantDefault resolves to Modified.
func WithVariant(v Variant) Option {
	return func(o *config) error {
		if v != VariantDefault && !v.Valid() {
			return fmt.Errorf("bayou: WithVariant(%d): unknown protocol variant", int(v))
		}
		o.Variant = v
		return nil
	}
}

// WithSeed makes simulated runs reproducible (default 1). The live driver
// ignores the seed.
func WithSeed(seed int64) Option {
	return func(o *config) error {
		o.Seed = seed
		return nil
	}
}

// WithStepBatch caps how many internal events one replica activation drains
// (simulation; see experiment E13).
func WithStepBatch(n int) Option {
	return func(o *config) error {
		if n < 0 {
			return fmt.Errorf("bayou: WithStepBatch(%d): negative batch", n)
		}
		o.StepBatch = n
		return nil
	}
}

// WithLatency sets the simulated link latency in ticks (default 10). Fault
// and timing scripts that reason about when messages cross links set it
// explicitly; the live driver rejects it (channels have no link timing).
func WithLatency(ticks int64) Option {
	return func(o *config) error {
		if ticks < 1 {
			return fmt.Errorf("bayou: WithLatency(%d): need at least one tick", ticks)
		}
		o.Latency = ticks
		return nil
	}
}

// WithCheckpointEvery bounds every replica's logs: once a replica has
// accumulated n commits past its last checkpoint it folds the stable prefix
// into a checkpoint image and truncates the committed log, undo data, dedup
// state and the total-order replay log to the suffix. Snapshots and
// crash-recovery become O(suffix) instead of O(history), and a replica that
// recovers (or falls) behind a peer's checkpoint catches up by state
// transfer — it receives the image instead of a per-operation replay. Both
// drivers support it; Cluster.Checkpoint triggers one manually regardless of
// the cadence. n = 0 restores the default (no automatic checkpointing).
func WithCheckpointEvery(n int) Option {
	return func(o *config) error {
		if n < 0 {
			return fmt.Errorf("bayou: WithCheckpointEvery(%d): negative cadence", n)
		}
		o.CheckpointEvery = n
		return nil
	}
}

// WithLeaderLease lets the total-order leader serve strong read-only
// operations locally from its committed prefix — zero proposal rounds, no
// forwarding — while preserving sequential consistency for the strong
// level: the lease is granted by a read quorum and fenced by the clock,
// so a leader that loses quorum stops serving before a rival can commit
// (see DESIGN.md for the per-substrate safety argument). Both drivers
// support it; on the live driver the permanent sequencer plays the
// leaseholder.
func WithLeaderLease() Option {
	return func(o *config) error {
		o.LeaderLease = true
		return nil
	}
}

// WithPeers points NewLive at replicas running as separate OS processes:
// addrs lists every node's listen address in replica-id order (each one a
// running cmd/bayou-node with the same -addrs list), and the constructed
// driver is the controller — it owns the sessions, the recorder, and the
// fault plane, and reaches every replica over TCP. The node processes'
// own flags must agree with the driver's options (variant, checkpoint
// cadence, leader lease). Without this option NewLive runs the replicas
// as in-process goroutines; the simulator rejects it.
func WithPeers(addrs ...string) Option {
	return func(o *config) error {
		if len(addrs) == 0 {
			return fmt.Errorf("bayou: WithPeers: need at least one node address")
		}
		o.Peers = append([]string(nil), addrs...)
		return nil
	}
}

// WithPrimaryTOB selects the original Bayou primary-commit scheme instead of
// Paxos; replica 0 becomes the (non-fault-tolerant) primary.
func WithPrimaryTOB() Option {
	return func(o *config) error {
		o.UsePrimaryTOB = true
		return nil
	}
}

// WithClockSlowdown divides one replica's clock (the §2.3 skewed-clock
// experiments; simulation only).
func WithClockSlowdown(replica int, divisor int64) Option {
	return func(o *config) error {
		if divisor < 1 {
			return fmt.Errorf("bayou: WithClockSlowdown(%d, %d): divisor must be ≥ 1", replica, divisor)
		}
		if o.ClockSlowdown == nil {
			o.ClockSlowdown = make(map[int]int64)
		}
		o.ClockSlowdown[replica] = divisor
		return nil
	}
}

// build folds the options into a validated config.
func build(opts []Option) (config, error) {
	o := config{}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return config{}, err
		}
	}
	return o.normalize()
}

// normalize applies defaults and validates the configuration.
func (o config) normalize() (config, error) {
	if len(o.Peers) > 0 {
		if o.Replicas != 0 && o.Replicas != len(o.Peers) {
			return o, fmt.Errorf("bayou: WithReplicas(%d) contradicts WithPeers of %d addresses", o.Replicas, len(o.Peers))
		}
		o.Replicas = len(o.Peers)
	}
	if o.Replicas == 0 {
		o.Replicas = 3
	}
	if o.Replicas < 0 {
		return o, fmt.Errorf("bayou: %d replicas", o.Replicas)
	}
	switch {
	case o.Variant == VariantDefault:
		o.Variant = Modified
	case !o.Variant.Valid():
		return o, fmt.Errorf("bayou: unknown protocol variant %d (use Original, Modified or VariantDefault)", int(o.Variant))
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o, nil
}
