package bayou

import (
	"context"
	"sort"
	"testing"
	"time"
)

// step is one scripted invocation of the conformance scenario, addressed to
// a named session.
type step struct {
	sess    string
	replica int // used when the session is first seen
	op      Op
	level   Level
}

// conformanceScript mixes weak and strong operations across four sessions,
// two of which share replica 0 — the shape the seed API could not express.
// All updates commute on the counter, so the settled counter value is
// substrate-independent even though commit order is not.
func conformanceScript() []step {
	return []step{
		{sess: "a", replica: 0, op: Inc("ctr", 1), level: Weak},
		{sess: "b", replica: 0, op: Inc("ctr", 2), level: Weak},
		{sess: "c", replica: 1, op: Inc("ctr", 4), level: Weak},
		{sess: "d", replica: 2, op: PutIfAbsent("lock", "d"), level: Strong},
		{sess: "a", op: Inc("ctr", 8), level: Weak},
		{sess: "b", op: PutIfAbsent("lock", "b"), level: Strong},
		{sess: "c", op: Inc("ctr", 16), level: Weak},
	}
}

// conformanceOutcome is everything the scenario observes through the public
// API, in a driver-comparable form.
type conformanceOutcome struct {
	counter    Value
	lockOwners int      // how many strong putIfAbsent calls won (must be 1)
	committed  []string // replica 0's committed order
	fecOK      bool
	seqOK      bool
}

// runConformance executes the script on the given cluster — the function is
// substrate-blind; only the constructor differs between the sub-tests.
func runConformance(t *testing.T, c *Cluster) conformanceOutcome {
	t.Helper()
	defer c.Close()
	if err := c.ElectLeader(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sessions := map[string]*Session{}
	wins := 0
	for _, st := range conformanceScript() {
		s, ok := sessions[st.sess]
		if !ok {
			var err error
			if s, err = c.Session(st.replica); err != nil {
				t.Fatal(err)
			}
			sessions[st.sess] = s
		}
		call, err := s.Invoke(st.op, st.level)
		if err != nil {
			t.Fatalf("session %s: %v", st.sess, err)
		}
		if st.level == Strong {
			// Keep the session well-formed: the next scripted op on
			// this session may not overlap its pending strong call.
			resp, err := s.Wait(ctx)
			if err != nil {
				t.Fatalf("session %s: %v", st.sess, err)
			}
			if resp.Value == true {
				wins++
			}
			_ = call
		}
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	// Convergence within the deployment: every replica holds the same
	// committed order.
	ref, err := c.Committed(0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < c.Replicas(); r++ {
		got, err := c.Committed(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("replica %d committed %d ops, replica 0 %d", r, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("replica %d committed order diverges at %d: %s vs %s", r, i, got[i], ref[i])
			}
		}
	}

	// A replica id outside the deployment is an error on every substrate,
	// never an index panic.
	for _, r := range []int{-1, c.Replicas(), 7} {
		if _, err := c.Read(r, "ctr"); err == nil {
			t.Errorf("Read(%d) succeeded, want an error", r)
		}
		if _, err := c.Committed(r); err == nil {
			t.Errorf("Committed(%d) succeeded, want an error", r)
		}
		if _, err := c.CheckpointedLen(r); err == nil {
			t.Errorf("CheckpointedLen(%d) succeeded, want an error", r)
		}
		if _, err := sessions["a"].Covered(r); err == nil {
			t.Errorf("Session.Covered(%d) succeeded, want an error", r)
		}
	}

	c.MarkStable()
	probe, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Invoke(ListRead(), Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	counter, err := c.Read(0, "ctr")
	if err != nil {
		t.Fatal(err)
	}
	fec, err := c.CheckFEC(Weak)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.CheckSeq(Strong)
	if err != nil {
		t.Fatal(err)
	}
	return conformanceOutcome{
		counter:    counter,
		lockOwners: wins,
		committed:  sortedCopy(ref),
		fecOK:      fec.OK(),
		seqOK:      seq.OK(),
	}
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// runFaultConformance executes the fault-plane script — crash → invoke →
// recover → partition → heal — on the given cluster, substrate-blind. The
// script avoids crashing replica 0 (the live sequencer cannot crash) and
// avoids link timing (live has none), so it is expressible on both drivers.
func runFaultConformance(t *testing.T, c *Cluster) conformanceOutcome {
	t.Helper()
	defer c.Close()
	if err := c.ElectLeader(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	s2, err := c.Session(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Invoke(Inc("ctr", 1), Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	// Crash the replica; the survivors serve both levels.
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	s0, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Invoke(Inc("ctr", 2), Weak); err != nil {
		t.Fatal(err)
	}
	s1, err := c.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	if _, err := s1.Invoke(PutIfAbsent("lock", "b"), Strong); err != nil {
		t.Fatal(err)
	}
	resp, err := s1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value == true {
		wins++
	}

	// Recover, then immediately partition the recovered replica away: its
	// weak operations must stay available inside the minority cell.
	if err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Partition([]int{0, 1}, []int{2}); err != nil {
		t.Fatal(err)
	}
	minority, err := c.Session(2)
	if err != nil {
		t.Fatal(err)
	}
	call, err := minority.Invoke(Inc("ctr", 4), Weak)
	if err != nil {
		t.Fatalf("weak op on a recovered minority replica: %v", err)
	}
	if !call.Done() {
		t.Fatal("weak op lost bounded wait-freedom in the minority cell")
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	ref, err := c.Committed(0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < c.Replicas(); r++ {
		got, err := c.Committed(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("replica %d committed %d ops, replica 0 %d", r, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("replica %d committed order diverges at %d: %s vs %s", r, i, got[i], ref[i])
			}
		}
	}

	c.MarkStable()
	probe, err := c.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Invoke(ListRead(), Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	counter, err := c.Read(0, "ctr")
	if err != nil {
		t.Fatal(err)
	}
	fec, err := c.CheckFEC(Weak)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.CheckSeq(Strong)
	if err != nil {
		t.Fatal(err)
	}
	return conformanceOutcome{
		counter:    counter,
		lockOwners: wins,
		committed:  sortedCopy(ref),
		fecOK:      fec.OK(),
		seqOK:      seq.OK(),
	}
}

// checkpointOutcome extends the conformance outcome with the checkpoint
// anchors observed per replica.
type checkpointOutcome struct {
	conformanceOutcome
	bases []int
}

// runCheckpointConformance executes the checkpoint fault script on the given
// cluster, substrate-blind: commit traffic, crash a replica, commit more,
// checkpoint the survivors (truncating their logs below the crashed
// replica's knowledge), commit a suffix, then recover — the returning
// replica is behind every peer's checkpoint, so its TOB catch-up must run as
// *state transfer* (it receives the checkpoint image, not a per-operation
// replay) before the surviving per-slot suffix replays on top.
func runCheckpointConformance(t *testing.T, c *Cluster) checkpointOutcome {
	t.Helper()
	defer c.Close()
	if err := c.ElectLeader(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// One committed op everywhere, including the soon-to-crash replica 2.
	s2, err := c.Session(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Invoke(Inc("ctr", 1), Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	// Crash 2 (no outstanding calls there: the script keeps the transfer
	// orphan-free so both drivers owe full responses), then commit four more
	// ops among the survivors.
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	s0, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range []int64{2, 4, 8} {
		if _, err := s0.Invoke(Inc("ctr", inc), Weak); err != nil {
			t.Fatal(err)
		}
	}
	wins := 0
	if _, err := s1.Invoke(PutIfAbsent("lock", "b"), Strong); err != nil {
		t.Fatal(err)
	}
	resp, err := s1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value == true {
		wins++
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	// Checkpoint the survivors: their logs truncate at 5 commits — past
	// everything replica 2 knows.
	truncated, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if truncated == 0 {
		t.Fatal("checkpoint truncated nothing")
	}

	// A committed suffix past the checkpoint, then recover: replica 2 must
	// install the image (state transfer) and replay only the suffix.
	for _, inc := range []int64{16, 32} {
		if _, err := s0.Invoke(Inc("ctr", inc), Weak); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	// The recovered replica serves fresh traffic.
	s2b, err := c.Session(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2b.Invoke(Inc("ctr", 64), Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	c.MarkStable()
	probe, err := c.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Invoke(ListRead(), Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	// Convergence in absolute terms: every replica at the same absolute
	// committed length and identical registers (the resident suffixes hang
	// off per-replica checkpoint bases, so raw log comparison is no longer
	// meaningful — that is the point).
	bases := make([]int, c.Replicas())
	lens := make([]int, c.Replicas())
	for r := 0; r < c.Replicas(); r++ {
		if bases[r], err = c.CheckpointedLen(r); err != nil {
			t.Fatal(err)
		}
		suffix, err := c.Driver().Committed(r)
		if err != nil {
			t.Fatal(err)
		}
		lens[r] = bases[r] + len(suffix)
	}
	for r := 1; r < c.Replicas(); r++ {
		if lens[r] != lens[0] {
			t.Fatalf("absolute committed lengths diverge: %v", lens)
		}
	}
	counter, err := c.Read(0, "ctr")
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < c.Replicas(); r++ {
		v, err := c.Read(r, "ctr")
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(counter, v) {
			t.Fatalf("registers diverge: replica 0 %v, replica %d %v", counter, r, v)
		}
	}
	fec, err := c.CheckFEC(Weak)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.CheckSeq(Strong)
	if err != nil {
		t.Fatal(err)
	}
	return checkpointOutcome{
		conformanceOutcome: conformanceOutcome{
			counter:    counter,
			lockOwners: wins,
			fecOK:      fec.OK(),
			seqOK:      seq.OK(),
		},
		bases: bases,
	}
}

// runGuaranteeConformance executes the guarantee script — a Causal session
// migrating under a partition — on the given cluster, substrate-blind: the
// session writes at replica 0, migrates to 1 and writes again, then
// migrates to the partitioned-away replica 2, where its read parks on the
// coverage gate until the partition heals. Returns the driver-comparable
// outcome (the gated read's value is folded into the committed/checker
// comparison by asserting it saw both writes).
func runGuaranteeConformance(t *testing.T, c *Cluster) conformanceOutcome {
	t.Helper()
	defer c.Close()
	if err := c.ElectLeader(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	s, err := c.Session(0, WithGuarantees(Causal))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke(Inc("ctr", 1), Weak); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	if err := c.Partition([]int{0, 1}, []int{2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke(Inc("ctr", 2), Weak); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Migrate into the minority: the read cannot be served there until the
	// partition heals (replica 2 has never seen the second write).
	if err := s.Bind(2); err != nil {
		t.Fatal(err)
	}
	gated, err := s.Invoke(CtrGet("ctr"), Weak)
	if err != nil {
		t.Fatal(err)
	}
	if gated.Done() {
		t.Fatal("read served in the minority without coverage of the majority-side write")
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(resp.Value, int64(3)) {
		t.Fatalf("gated read = %v, want 3 (both session writes)", resp.Value)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	c.MarkStable()
	probe, err := c.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Invoke(ListRead(), Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	ref, err := c.Committed(0)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := c.Read(0, "ctr")
	if err != nil {
		t.Fatal(err)
	}
	fec, err := c.CheckFEC(Weak)
	if err != nil {
		t.Fatal(err)
	}
	guar, err := c.CheckGuarantees(Causal)
	if err != nil {
		t.Fatal(err)
	}
	return conformanceOutcome{
		counter:    counter,
		lockOwners: 1, // no strong contention in this script
		committed:  sortedCopy(ref),
		fecOK:      fec.OK(),
		seqOK:      guar.OK(),
	}
}

// runLeaseFailoverConformance executes the lease fault script on the given
// cluster, substrate-blind: acquire the lease at the leader, then keep
// serving strong reads locally while a lease *grantor* crashes, recovers,
// and is partitioned into a minority — the holder retains a quorum of
// grants throughout, so reads never fall back to consensus for long. The
// script never crashes replica 0 (the live sequencer cannot crash) and
// expresses failover through the grantor side, which both substrates can
// run. Lease service is observed through the public API: a lease-served
// strong read is complete the moment Invoke returns, a consensus read is
// not.
func runLeaseFailoverConformance(t *testing.T, c *Cluster) conformanceOutcome {
	t.Helper()
	defer c.Close()
	if err := c.ElectLeader(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	s0, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Invoke(Inc("ctr", 1), Strong); err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	// leaseRead retries a strong read until one is served synchronously —
	// the first queries warm the lease (acquisition is query-driven); the
	// consensus fallbacks in between must still complete and be correct.
	leaseRead := func() Value {
		for try := 0; ; try++ {
			call, err := s0.Invoke(CtrGet("ctr"), Strong)
			if err != nil {
				t.Fatal(err)
			}
			done := call.Done()
			resp, err := s0.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				return resp.Value
			}
			if try > 50 {
				t.Fatal("lease never engaged: strong reads keep routing through consensus")
			}
			c.Run(200)
			if err := c.Settle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if v := leaseRead(); !Equal(v, int64(1)) {
		t.Fatalf("lease read = %v, want 1", v)
	}

	// Crash a grantor: the holder still has a quorum (itself plus replica
	// 1), so local service must continue.
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	s1, err := c.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Invoke(Inc("ctr", 2), Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	leaseRead()

	// Recover the grantor, then partition it into a minority: quorum
	// {0, 1} keeps granting, and the minority's weak writes stay
	// wait-free.
	if err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Partition([]int{0, 1}, []int{2}); err != nil {
		t.Fatal(err)
	}
	leaseRead()
	minority, err := c.Session(2)
	if err != nil {
		t.Fatal(err)
	}
	call, err := minority.Invoke(Inc("ctr", 4), Weak)
	if err != nil {
		t.Fatal(err)
	}
	if !call.Done() {
		t.Fatal("weak op lost bounded wait-freedom in the minority cell")
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	c.MarkStable()
	c.Run(50) // let simulated time pass the reads' Lamport bumps
	probe, err := c.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Invoke(ListRead(), Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	ref, err := c.Committed(0)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := c.Read(0, "ctr")
	if err != nil {
		t.Fatal(err)
	}
	fec, err := c.CheckFEC(Weak)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.CheckSeq(Strong)
	if err != nil {
		t.Fatal(err)
	}
	return conformanceOutcome{
		counter:    counter,
		lockOwners: 1, // no strong contention in this script
		committed:  sortedCopy(ref),
		fecOK:      fec.OK(),
		seqOK:      seq.OK(),
	}
}

// TestDriverConformanceLeaseFailover runs the lease fault script on both
// drivers with leases enabled and demands the same settled counter and the
// same checker verdicts — the lease fast path must not be visible in
// anything but latency.
func TestDriverConformanceLeaseFailover(t *testing.T) {
	sim, err := New(WithReplicas(3), WithSeed(5150), WithLeaderLease())
	if err != nil {
		t.Fatal(err)
	}
	simOut := runLeaseFailoverConformance(t, sim)

	live, err := NewLive(WithReplicas(3), WithLeaderLease())
	if err != nil {
		t.Fatal(err)
	}
	liveOut := runLeaseFailoverConformance(t, live)

	if !Equal(simOut.counter, int64(7)) {
		t.Errorf("sim counter = %v, want 7", simOut.counter)
	}
	if !Equal(simOut.counter, liveOut.counter) {
		t.Errorf("drivers disagree on the settled counter: sim %v, live %v", simOut.counter, liveOut.counter)
	}
	if !simOut.fecOK || !liveOut.fecOK {
		t.Errorf("FEC(weak) verdicts under lease failover: sim %v, live %v, want both true", simOut.fecOK, liveOut.fecOK)
	}
	if !simOut.seqOK || !liveOut.seqOK {
		t.Errorf("Seq(strong) verdicts under lease failover: sim %v, live %v, want both true", simOut.seqOK, liveOut.seqOK)
	}
}

// TestDriverConformanceGuarantees runs the identical migrate-under-partition
// guarantee script on both drivers and demands equal settled counters, equal
// committed multisets and equal verdicts (FEC(weak) and CheckGuarantees).
func TestDriverConformanceGuarantees(t *testing.T) {
	sim, err := New(WithReplicas(3), WithSeed(777))
	if err != nil {
		t.Fatal(err)
	}
	simOut := runGuaranteeConformance(t, sim)

	live, err := NewLive(WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	liveOut := runGuaranteeConformance(t, live)

	if !Equal(simOut.counter, int64(3)) {
		t.Errorf("sim counter = %v, want 3", simOut.counter)
	}
	if !Equal(simOut.counter, liveOut.counter) {
		t.Errorf("drivers disagree on the settled counter: sim %v, live %v", simOut.counter, liveOut.counter)
	}
	if len(simOut.committed) != len(liveOut.committed) {
		t.Fatalf("committed sizes diverge: sim %v, live %v", simOut.committed, liveOut.committed)
	}
	for i := range simOut.committed {
		if simOut.committed[i] != liveOut.committed[i] {
			t.Errorf("committed multisets diverge at %d: sim %s, live %s", i, simOut.committed[i], liveOut.committed[i])
		}
	}
	if !simOut.fecOK || !liveOut.fecOK {
		t.Errorf("FEC(weak) verdicts: sim %v, live %v, want both true", simOut.fecOK, liveOut.fecOK)
	}
	if !simOut.seqOK || !liveOut.seqOK {
		t.Errorf("CheckGuarantees(Causal) verdicts: sim %v, live %v, want both true", simOut.seqOK, liveOut.seqOK)
	}
}

// TestDriverConformanceFaults runs the identical fault script — crash →
// invoke → recover → partition → heal — on both drivers and demands equal
// settled values, equal committed multisets and equal checker verdicts.
func TestDriverConformanceFaults(t *testing.T) {
	sim, err := New(WithReplicas(3), WithSeed(4321))
	if err != nil {
		t.Fatal(err)
	}
	simOut := runFaultConformance(t, sim)

	live, err := NewLive(WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	liveOut := runFaultConformance(t, live)

	if !Equal(simOut.counter, int64(7)) {
		t.Errorf("sim counter = %v, want 7", simOut.counter)
	}
	if !Equal(simOut.counter, liveOut.counter) {
		t.Errorf("drivers disagree on the settled counter: sim %v, live %v", simOut.counter, liveOut.counter)
	}
	if simOut.lockOwners != 1 || liveOut.lockOwners != 1 {
		t.Errorf("strong putIfAbsent winners: sim %d, live %d, want 1 and 1", simOut.lockOwners, liveOut.lockOwners)
	}
	if len(simOut.committed) != len(liveOut.committed) {
		t.Fatalf("committed sizes diverge: sim %v, live %v", simOut.committed, liveOut.committed)
	}
	for i := range simOut.committed {
		if simOut.committed[i] != liveOut.committed[i] {
			t.Errorf("committed multisets diverge at %d: sim %s, live %s", i, simOut.committed[i], liveOut.committed[i])
		}
	}
	if !simOut.fecOK || !liveOut.fecOK {
		t.Errorf("FEC(weak) verdicts under faults: sim %v, live %v, want both true", simOut.fecOK, liveOut.fecOK)
	}
	if !simOut.seqOK || !liveOut.seqOK {
		t.Errorf("Seq(strong) verdicts under faults: sim %v, live %v, want both true", simOut.seqOK, liveOut.seqOK)
	}
}

// TestDriverConformanceCheckpoint runs the checkpoint-then-crash-then-recover
// script on both drivers: the recovering replica is behind every survivor's
// checkpoint, so its catch-up must run as state transfer on both substrates,
// and the drivers must agree on the settled counter, the checkpoint anchors,
// and the checker verdicts.
func TestDriverConformanceCheckpoint(t *testing.T) {
	sim, err := New(WithReplicas(3), WithSeed(8642))
	if err != nil {
		t.Fatal(err)
	}
	simOut := runCheckpointConformance(t, sim)

	live, err := NewLive(WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	liveOut := runCheckpointConformance(t, live)

	if !Equal(simOut.counter, int64(127)) {
		t.Errorf("sim counter = %v, want 127", simOut.counter)
	}
	if !Equal(simOut.counter, liveOut.counter) {
		t.Errorf("drivers disagree on the settled counter: sim %v, live %v", simOut.counter, liveOut.counter)
	}
	if simOut.lockOwners != 1 || liveOut.lockOwners != 1 {
		t.Errorf("strong putIfAbsent winners: sim %d, live %d, want 1 and 1", simOut.lockOwners, liveOut.lockOwners)
	}
	// The script commits 5 ops before the survivors checkpoint, so every
	// replica — including the recovered one, whose only way to base 5 is
	// installing the transferred image — must anchor there.
	for _, out := range []struct {
		name  string
		bases []int
	}{{"sim", simOut.bases}, {"live", liveOut.bases}} {
		for r, base := range out.bases {
			if base != 5 {
				t.Errorf("%s replica %d checkpoint base = %d, want 5 (state transfer not exercised?)", out.name, r, base)
			}
		}
	}
	if !simOut.fecOK || !liveOut.fecOK {
		t.Errorf("FEC(weak) verdicts under checkpointing: sim %v, live %v, want both true", simOut.fecOK, liveOut.fecOK)
	}
	if !simOut.seqOK || !liveOut.seqOK {
		t.Errorf("Seq(strong) verdicts under checkpointing: sim %v, live %v, want both true", simOut.seqOK, liveOut.seqOK)
	}
}

// txnOutcome is everything the transaction conformance script observes
// through the public API, in a driver-comparable form.
type txnOutcome struct {
	alice, bob, carol Value
	counter           Value
	aborts            int  // terminal Call.Aborted() verdicts (must be 1)
	strongOK          bool // the majority's strong transfer succeeded
	committed         []string
	fecOK, seqOK      bool
	txnOK             bool // CheckTxn(SumConserved) verdict
}

// runTxnConformance executes the transfer-under-partition transaction script
// on the given cluster, substrate-blind. A committed deposit funds alice
// everywhere; a partition isolates replica 2, whose WEAK transfer txn
// tentatively approves against the seeded balance while the majority's
// STRONG transfer drains the same funds through one consensus slot. On heal
// the minority unit rebases behind the strong one, its precondition fails at
// the fixed position, and it must abort atomically — no substrate may leak
// its paired deposit. Plain weak counter increments ride the same schedule
// on both sides of the split so units and single ops interleave in one
// committed order.
func runTxnConformance(t *testing.T, c *Cluster) txnOutcome {
	t.Helper()
	defer c.Close()
	if err := c.ElectLeader(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	transfer := func(from, to string, amount int64) []TxnStep {
		return []TxnStep{
			Require(Withdraw(from, amount)),
			Do(Deposit(to, amount)),
		}
	}

	// Seed: one committed deposit, settled onto every replica so the
	// minority's tentative run observes the funds.
	s0, err := c.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Invoke(Deposit("alice", 100), Strong); err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	if err := c.Partition([]int{0, 1}, []int{2}); err != nil {
		t.Fatal(err)
	}

	// The minority transfer: wait-free and tentatively approved, but its
	// consensus cast is parked by the partition.
	minority, err := c.Session(2)
	if err != nil {
		t.Fatal(err)
	}
	weakTxn, err := minority.Txn(Weak, transfer("alice", "bob", 80)...)
	if err != nil {
		t.Fatal(err)
	}
	if !weakTxn.Done() {
		t.Fatal("weak txn lost bounded wait-freedom in the minority cell")
	}
	if _, err := minority.Invoke(Inc("ctr", 2), Weak); err != nil {
		t.Fatal(err)
	}

	// The majority drains the funds: a strong unit through one slot, final
	// the moment it returns, plus a plain weak op in the same cell.
	s1, err := c.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Invoke(Inc("ctr", 1), Weak); err != nil {
		t.Fatal(err)
	}
	strongTxn, err := s0.Txn(Strong, transfer("alice", "carol", 60)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	aborts := 0
	for _, call := range []*Call{weakTxn, strongTxn} {
		if call.Aborted() {
			aborts++
		}
	}

	// Convergence within the deployment: every replica holds the same
	// committed order, units appearing as single entries.
	ref, err := c.Committed(0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < c.Replicas(); r++ {
		got, err := c.Committed(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("replica %d committed %d ops, replica 0 %d", r, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("replica %d committed order diverges at %d: %s vs %s", r, i, got[i], ref[i])
			}
		}
	}

	c.MarkStable()
	probe, err := c.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Invoke(ListRead(), Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	read := func(reg string) Value {
		v, err := c.Read(0, reg)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	fec, err := c.CheckFEC(Weak)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.CheckSeq(Strong)
	if err != nil {
		t.Fatal(err)
	}
	atomic, err := c.CheckTxn(SumConserved("acct/", 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !atomic.OK() {
		t.Errorf("transactional atomicity violated:\n%s", atomic)
	}
	return txnOutcome{
		alice:     read("acct/alice"),
		bob:       read("acct/bob"),
		carol:     read("acct/carol"),
		counter:   read("ctr"),
		aborts:    aborts,
		strongOK:  !strongTxn.Aborted(),
		committed: sortedCopy(ref),
		fecOK:     fec.OK(),
		seqOK:     seq.OK(),
		txnOK:     atomic.OK(),
	}
}

// assertTxnOutcome pins one substrate's transaction-script outcome against
// the simulator reference: same balances, same settled counter, the same
// single abort, and the same verdicts.
func assertTxnOutcome(t *testing.T, name string, sim, got txnOutcome) {
	t.Helper()
	if !Equal(got.alice, int64(40)) || got.bob != nil || !Equal(got.carol, int64(60)) {
		t.Errorf("%s balances alice=%v bob=%v carol=%v; want 40/<nil>/60", name, got.alice, got.bob, got.carol)
	}
	if !Equal(got.counter, int64(3)) {
		t.Errorf("%s counter = %v, want 3", name, got.counter)
	}
	if got.aborts != 1 {
		t.Errorf("%s terminal aborts = %d, want exactly the minority unit", name, got.aborts)
	}
	if !got.strongOK {
		t.Errorf("%s strong transfer aborted; its slot precedes the conflict", name)
	}
	if len(sim.committed) != len(got.committed) {
		t.Fatalf("committed sizes diverge: sim %v, %s %v", sim.committed, name, got.committed)
	}
	for i := range sim.committed {
		if sim.committed[i] != got.committed[i] {
			t.Errorf("committed multisets diverge at %d: sim %s, %s %s", i, sim.committed[i], name, got.committed[i])
		}
	}
	if !got.fecOK || !got.seqOK || !got.txnOK {
		t.Errorf("%s verdicts: FEC(weak) %v, Seq(strong) %v, TxnAtomicity %v, want all true",
			name, got.fecOK, got.seqOK, got.txnOK)
	}
}

// TestDriverConformanceTxn runs the transfer-under-partition transaction
// script on the simulator and the in-process live driver and demands equal
// balances, counters, committed multisets, abort counts and checker
// verdicts — a transaction is one schedule entry on every substrate, and an
// abort is atomic on every substrate.
func TestDriverConformanceTxn(t *testing.T) {
	sim, err := New(WithReplicas(3), WithSeed(2468))
	if err != nil {
		t.Fatal(err)
	}
	simOut := runTxnConformance(t, sim)

	live, err := NewLive(WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	liveOut := runTxnConformance(t, live)

	assertTxnOutcome(t, "sim", simOut, simOut)
	assertTxnOutcome(t, "live", simOut, liveOut)
}

// TestDriverConformance runs the identical scripted scenario against both
// drivers and asserts they agree on everything timing-independent: the
// settled counter value, the committed operation multiset, exactly one
// strong putIfAbsent winner, and the checker verdicts. (The simulator's
// committed *order* is deterministic; the live driver's depends on real
// scheduling, so orders are compared as multisets.)
func TestDriverConformance(t *testing.T) {
	sim, err := New(WithReplicas(3), WithSeed(1234))
	if err != nil {
		t.Fatal(err)
	}
	simOut := runConformance(t, sim)

	live, err := NewLive(WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	liveOut := runConformance(t, live)

	if !Equal(simOut.counter, int64(31)) {
		t.Errorf("sim counter = %v, want 31", simOut.counter)
	}
	if !Equal(simOut.counter, liveOut.counter) {
		t.Errorf("drivers disagree on the settled counter: sim %v, live %v", simOut.counter, liveOut.counter)
	}
	if simOut.lockOwners != 1 || liveOut.lockOwners != 1 {
		t.Errorf("strong putIfAbsent winners: sim %d, live %d, want 1 and 1", simOut.lockOwners, liveOut.lockOwners)
	}
	if len(simOut.committed) != len(liveOut.committed) {
		t.Fatalf("committed sizes diverge: sim %v, live %v", simOut.committed, liveOut.committed)
	}
	for i := range simOut.committed {
		if simOut.committed[i] != liveOut.committed[i] {
			t.Errorf("committed multisets diverge at %d: sim %s, live %s", i, simOut.committed[i], liveOut.committed[i])
		}
	}
	if !simOut.fecOK || !liveOut.fecOK {
		t.Errorf("FEC(weak) verdicts: sim %v, live %v, want both true", simOut.fecOK, liveOut.fecOK)
	}
	if !simOut.seqOK || !liveOut.seqOK {
		t.Errorf("Seq(strong) verdicts: sim %v, live %v, want both true", simOut.seqOK, liveOut.seqOK)
	}
}
