package cluster

import (
	"errors"
	"testing"

	"bayou/internal/check"
	"bayou/internal/core"
	"bayou/internal/spec"
)

// waitLease drives the deployment until the leader's TOB endpoint holds
// the ordering lease (the query itself triggers acquisition/renewal).
func waitLease(t *testing.T, c *Cluster, id core.ReplicaID) {
	t.Helper()
	for try := 0; !c.TOBLeaseHeld(id); try++ {
		if try > 1000 {
			t.Fatalf("replica %d never acquired the lease", id)
		}
		c.RunFor(20)
	}
}

// TestLeaseReadsServedLocallySatisfySeq: strong reads under a held lease
// are served from the leader's committed prefix with zero proposal
// rounds, and the resulting history still satisfies the paper's full
// predicate set — the lease read is anchored between commits in the
// reconstructed arbitration, so Seq(strong) must hold over the mix of
// consensus-committed writes and locally-served reads.
func TestLeaseReadsServedLocallySatisfySeq(t *testing.T) {
	c, err := New(Config{N: 3, Variant: core.NoCircularCausality, Seed: 91, LeaseTicks: 2000})
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeOmega(0)
	mustInvoke(t, c, 0, spec.Inc("c", 1), core.Strong)
	mustSettle(t, c)
	mustInvoke(t, c, 1, spec.Inc("c", 10), core.Strong)
	mustSettle(t, c)
	waitLease(t, c, 0)

	before := c.PaxosCounters(0)
	reads := make([]*Call, 3)
	for i := range reads {
		reads[i] = mustInvoke(t, c, 0, spec.Get("c"), core.Strong)
		if !reads[i].Done() {
			t.Fatalf("lease read %d not served synchronously", i)
		}
	}
	after := c.PaxosCounters(0)
	if after.Proposals != before.Proposals {
		t.Errorf("lease reads issued %d proposals, want 0", after.Proposals-before.Proposals)
	}
	if after.Prepares != before.Prepares {
		t.Errorf("lease reads re-ran Phase 1")
	}

	mustSettle(t, c)
	c.MarkStable()
	// Lease reads are served synchronously — they consume no simulated
	// time, only Lamport bumps of the leader's clock. Let real (simulated)
	// time pass so the probes' timestamps land after the reads', as the
	// model's "probes issued after quiescence" premise requires.
	c.RunFor(16)
	for i := 0; i < 3; i++ {
		mustInvoke(t, c, core.ReplicaID(i), spec.Get("c"), core.Weak)
	}
	mustSettle(t, c)

	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	leased := 0
	for _, e := range h.Events {
		if e.LeaseRead {
			leased++
			if e.TOBCast {
				t.Errorf("lease read %s marked TOB-cast", e.Dot)
			}
			if e.LeaseNo <= 0 {
				t.Errorf("lease read %s anchored at prefix %d, want > 0", e.Dot, e.LeaseNo)
			}
		}
	}
	if leased != len(reads) {
		t.Errorf("history records %d lease reads, want %d", leased, len(reads))
	}
	w := check.NewWitness(h)
	if res := w.ArTotal(); !res.Holds {
		t.Errorf("%s", res)
	}
	for _, rep := range []check.Report{w.FEC(core.Weak), w.FEC(core.Strong), w.Seq(core.Strong)} {
		if !rep.OK() {
			t.Errorf("leased run violates guarantee:\n%s", rep)
		}
	}
}

// TestLeaseExpiresUnderPartitionNoStaleRead is the fault-honesty
// obligation end to end: partition the lease-holding leader away from its
// quorum, let the granted window lapse, and the leader must refuse to
// serve strong reads locally — the read falls back to consensus and
// pends until the partition heals, rather than returning a value the
// majority side could have moved past.
func TestLeaseExpiresUnderPartitionNoStaleRead(t *testing.T) {
	c, err := New(Config{N: 3, Variant: core.NoCircularCausality, Seed: 92, LeaseTicks: 2000})
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeOmega(0)
	mustInvoke(t, c, 0, spec.Inc("c", 1), core.Strong)
	mustSettle(t, c)
	waitLease(t, c, 0)

	c.Partition([]core.ReplicaID{0}, []core.ReplicaID{1, 2})
	// No renewal grant can cross the partition; simulated time passes the
	// granted window.
	c.RunFor(3 * 2000)
	if c.TOBLeaseHeld(0) {
		t.Fatal("partitioned leader still holds the lease after expiry")
	}

	read := mustInvoke(t, c, 0, spec.Get("c"), core.Strong)
	c.RunFor(2000)
	if read.Done() {
		t.Fatal("strong read served during partition after lease expiry — stale read")
	}

	c.Heal()
	mustSettle(t, c)
	if !read.Done() {
		t.Fatal("strong read never completed after heal")
	}
	c.MarkStable()
	for i := 0; i < 3; i++ {
		mustInvoke(t, c, core.ReplicaID(i), spec.Get("c"), core.Weak)
	}
	mustSettle(t, c)

	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	w := check.NewWitness(h)
	if res := w.ArTotal(); !res.Holds {
		t.Errorf("%s", res)
	}
	for _, rep := range []check.Report{w.FEC(core.Weak), w.Seq(core.Strong)} {
		if !rep.OK() {
			t.Errorf("faulted leased run violates guarantee:\n%s", rep)
		}
	}
}

// TestPipelinedBatchedRunConvergesUnderCheckpoint: the multi-decree fast
// path (deep pipeline, batching, leases) composed with PR 5's checkpoint
// cadence and crash-recovery state transfer — a replica that slept
// through batched commits and a checkpoint catches up and converges to
// the same committed order.
func TestPipelinedBatchedRunConvergesUnderCheckpoint(t *testing.T) {
	c, err := New(Config{
		N: 3, Variant: core.NoCircularCausality, Seed: 93,
		CheckpointEvery: 8, PipelineDepth: 8, BatchCap: 64, LeaseTicks: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeOmega(0)
	// Sessions are sequential: back-to-back strong invocations on the same
	// default session race the commit of the previous one, so retry on
	// ErrSessionBusy while driving the scheduler — the retry pressure is
	// exactly what keeps the pipeline window full.
	invoke := func(id core.ReplicaID, op spec.Op) {
		t.Helper()
		for try := 0; ; try++ {
			_, err := c.Invoke(id, op, core.Strong)
			if err == nil {
				return
			}
			if !errors.Is(err, ErrSessionBusy) || try > 2000 {
				t.Fatal(err)
			}
			c.RunFor(5)
		}
	}
	for k := 0; k < 6; k++ {
		invoke(core.ReplicaID(k%3), spec.Inc("c", 1))
		c.RunFor(5)
	}
	mustSettle(t, c)
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	// Enough commits while 2 sleeps to cross several checkpoint windows.
	for k := 0; k < 24; k++ {
		invoke(core.ReplicaID(k%2), spec.Inc("c", 1))
		c.RunFor(5)
	}
	mustSettle(t, c)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	mustSettle(t, c)

	want := c.Replica(0).CommittedLen()
	if want != 30 {
		t.Fatalf("leader committed %d ops, want 30", want)
	}
	for i := 1; i < 3; i++ {
		if got := c.Replica(core.ReplicaID(i)).CommittedLen(); got != want {
			t.Errorf("replica %d committed %d, want %d", i, got, want)
		}
	}
	v0 := c.Replica(0).Read("c")
	for i := 1; i < 3; i++ {
		if v := c.Replica(core.ReplicaID(i)).Read("c"); v != v0 {
			t.Errorf("replica %d state %v != leader %v", i, v, v0)
		}
	}
}

// TestParkedStrongReadUsesFrozenCastGate pins the lease gate both drivers
// share: a parked invocation is served with the cast gate its session
// proved at admission. A Causal session's weak update at replica 1 has not
// reached the leader yet, so the session's strong read at the leader parks
// on read coverage, and at admission the update was still in flight — the
// cast gate was not proven. Once the update commits at the leader the read
// is covered and goes through consensus, although the leader holds the
// lease and the session's casts are by then all committed. The session's
// next strong read is admitted with a proven gate and served by the lease.
func TestParkedStrongReadUsesFrozenCastGate(t *testing.T) {
	c, err := New(Config{N: 3, Variant: core.NoCircularCausality, Seed: 93, LeaseTicks: 2000})
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeOmega(0)
	mustInvoke(t, c, 0, spec.Inc("c", 1), core.Strong)
	mustSettle(t, c)
	waitLease(t, c, 0)

	rec := c.Recorder()
	s := rec.OpenSession(1)
	rec.SetGuarantees(s, core.Causal, core.WaitForCoverage)
	w, err := c.InvokeSessionAt(s, 1, spec.Inc("c", 10), core.Weak)
	if err != nil || !w.Done() {
		t.Fatalf("weak update: done=%v err=%v", w != nil && w.Done(), err)
	}
	parked, err := c.InvokeSessionAt(s, 0, spec.CtrGet("c"), core.Strong)
	if err != nil {
		t.Fatal(err)
	}
	if (parked.Dot() != core.Dot{}) {
		t.Fatalf("strong read accepted as %s before the leader held the session's write", parked.Dot())
	}
	mustSettle(t, c)
	if !parked.Done() || !spec.Equal(parked.Value(), int64(11)) {
		t.Fatalf("parked read: done=%v value=%v, want 11", parked.Done(), parked.Value())
	}
	if !c.TOBLeaseHeld(0) {
		t.Fatal("the leader lost the lease; the next read cannot show the gate")
	}
	leased, err := c.InvokeSessionAt(s, 0, spec.CtrGet("c"), core.Strong)
	if err != nil || !leased.Done() {
		t.Fatalf("the session's next strong read: done=%v err=%v, want served by the lease", leased != nil && leased.Done(), err)
	}

	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range h.Events {
		switch e.Dot {
		case parked.Dot():
			if e.LeaseRead || !e.TOBCast {
				t.Errorf("parked read: LeaseRead=%v TOBCast=%v, want a consensus read", e.LeaseRead, e.TOBCast)
			}
		case leased.Dot():
			if !e.LeaseRead {
				t.Error("the session's next strong read was not a lease read")
			}
		}
	}
	if rep := check.NewWitness(h).Guarantees(core.Causal); !rep.OK() {
		t.Errorf("%s", rep)
	}
}
