package cluster

import (
	"errors"
	"testing"

	"bayou/internal/check"
	"bayou/internal/core"
	"bayou/internal/spec"
)

// assertConverged checks that every replica holds the same committed order
// and that the order has the expected length.
func assertConverged(t *testing.T, c *Cluster, n, wantCommits int) {
	t.Helper()
	ref := c.Replica(0).Committed()
	if len(ref) != wantCommits {
		t.Fatalf("replica 0 committed %d ops, want %d", len(ref), wantCommits)
	}
	for i := 1; i < n; i++ {
		got := c.Replica(core.ReplicaID(i)).Committed()
		if len(got) != len(ref) {
			t.Fatalf("replica %d committed %d ops, replica 0 %d", i, len(got), len(ref))
		}
		for j := range ref {
			if got[j].Dot != ref[j].Dot {
				t.Fatalf("replica %d committed order diverges at %d: %s vs %s", i, j, got[j].Dot, ref[j].Dot)
			}
		}
	}
}

// TestCrashRecoverCatchesUp crashes a replica mid-run, keeps the rest
// working, recovers it, and demands full convergence: the recovered replica
// refetches the tentative suffix via RB resync and the decided slots via
// the TOB learner catch-up.
func TestCrashRecoverCatchesUp(t *testing.T) {
	c, err := New(Config{N: 3, Variant: core.NoCircularCausality, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeOmega(0)
	mustInvoke(t, c, 2, spec.Append("pre"), core.Weak)
	mustSettle(t, c)

	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	if !c.Crashed(2) {
		t.Fatal("replica 2 must report crashed")
	}
	if _, err := c.Invoke(2, spec.Append("x"), core.Weak); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("invoke on crashed replica: err = %v, want ErrReplicaDown", err)
	}
	// The deployment keeps working without the crashed replica.
	mustInvoke(t, c, 0, spec.Append("while-down"), core.Weak)
	mustInvoke(t, c, 1, spec.Inc("ctr", 5), core.Weak)
	strongCall := mustInvoke(t, c, 0, spec.Duplicate(), core.Strong)
	mustSettle(t, c)
	if !strongCall.Done() {
		t.Fatal("strong op must commit with a majority alive")
	}
	if got := len(c.Replica(2).Committed()); got != 1 {
		t.Fatalf("crashed replica advanced: %d committed, want 1", got)
	}

	if err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	mustSettle(t, c)
	assertConverged(t, c, 3, 4) // pre, while-down, inc, duplicate
	if v := c.Replica(2).Read("ctr"); !spec.Equal(v, int64(5)) {
		t.Errorf("recovered ctr = %v, want 5", v)
	}
	// The recovered replica serves clients again.
	mustInvoke(t, c, 2, spec.Append("post"), core.Weak)
	mustSettle(t, c)
	c.MarkStable()
	for i := 0; i < 3; i++ {
		mustInvoke(t, c, core.ReplicaID(i), spec.ListRead(), core.Weak)
	}
	mustSettle(t, c)

	h, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	w := check.NewWitness(h)
	for _, rep := range []check.Report{w.FEC(core.Weak), w.BEC(core.Strong), w.Seq(core.Strong)} {
		if !rep.OK() {
			t.Errorf("crash–recover run violates guarantee:\n%s", rep)
		}
	}
}

// TestPrimaryTOBCannotCrashPrimary: forwards toward a crashed primary are
// lost with nothing to retransmit them, so the fault plane refuses the
// crash outright instead of wedging strong operations forever.
func TestPrimaryTOBCannotCrashPrimary(t *testing.T) {
	c, err := New(Config{N: 3, Variant: core.NoCircularCausality, Seed: 19, TOB: PrimaryTOB})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(0); err == nil {
		t.Fatal("crashing the primary under PrimaryTOB must be rejected")
	}
	// Non-primary replicas crash and recover normally.
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	mustInvoke(t, c, 0, spec.Append("a"), core.Weak)
	mustSettle(t, c)
	if err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	mustSettle(t, c)
	assertConverged(t, c, 3, 1)
}

// TestCrashedLeaderRecoversAndCommits crashes the Ω-designated leader while
// a strong operation is in flight: the operation stalls (no consensus
// progress without the leader), then completes once the leader recovers and
// its Resync re-establishes the ballot.
func TestCrashedLeaderRecoversAndCommits(t *testing.T) {
	c, err := New(Config{N: 3, Variant: core.NoCircularCausality, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeOmega(0)
	mustInvoke(t, c, 1, spec.Append("a"), core.Weak)
	mustSettle(t, c)

	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	strong := mustInvoke(t, c, 1, spec.Duplicate(), core.Strong)
	c.RunFor(5_000)
	if strong.Done() {
		t.Fatal("strong op committed with the only trusted leader crashed")
	}
	if err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	mustSettle(t, c)
	if !strong.Done() {
		t.Fatal("strong op still pending after leader recovery")
	}
	assertConverged(t, c, 3, 2)
}

// TestCrashWithPendingContinuationAnswersAfterRecovery crashes a replica
// holding a pending strong call; the continuation survives in the durable
// snapshot, the request commits while the replica is down (it had already
// reached the consensus pool), and recovery answers the client.
func TestCrashWithPendingContinuationAnswersAfterRecovery(t *testing.T) {
	c, err := New(Config{N: 3, Variant: core.NoCircularCausality, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	c.StabilizeOmega(0)
	mustInvoke(t, c, 1, spec.Append("a"), core.Weak)
	mustSettle(t, c)

	strong := mustInvoke(t, c, 2, spec.Duplicate(), core.Strong)
	weak, err := c.InvokeSessionAt(c.Recorder().OpenSession(2), 2, spec.Append("b"), core.Weak)
	if err != nil {
		t.Fatal(err)
	}
	if !weak.Done() {
		t.Fatal("Algorithm 2 weak ops answer immediately")
	}
	// Crash before any consensus round-trip completes.
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	mustSettle(t, c)
	if strong.Done() {
		t.Fatal("strong response cannot reach a crashed replica's client")
	}
	if _, ok := weak.Stable(); ok {
		t.Fatal("weak stable notice cannot reach a crashed replica's client")
	}

	if err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	mustSettle(t, c)
	if !strong.Done() {
		t.Fatal("recovered replica must answer the surviving strong continuation")
	}
	if resp := strong.Response(); !resp.Committed {
		t.Errorf("recovered strong response not committed: %+v", resp)
	}
	if _, ok := weak.Stable(); !ok {
		t.Error("recovered replica must deliver the owed weak stable notice")
	}
	assertConverged(t, c, 3, 3)
}
