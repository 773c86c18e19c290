package livenet

import (
	"errors"
	"testing"

	"bayou/internal/core"
	"bayou/internal/spec"
)

// TestCrashRecoverCatchesUpLive crashes a replica under real concurrency,
// keeps the rest of the deployment working, recovers it, and demands full
// convergence through the resync handshake (peer retransmission + sequencer
// commit-log replay).
func scriptCrashRecoverCatchesUp(t *testing.T, c *Controller) {

	if _, err := invokeAt(c, 2, spec.Append("pre"), core.Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err)
	}

	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(2); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("double crash: err = %v, want ErrReplicaDown", err)
	}
	if _, err := invokeAt(c, 2, spec.Append("x"), core.Weak); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("invoke on crashed replica: err = %v, want ErrReplicaDown", err)
	}
	if err := c.Crash(0); err == nil {
		t.Fatal("crashing the sequencer must be rejected")
	}

	// The deployment keeps going without replica 2.
	if _, err := invokeAt(c, 0, spec.Append("while-down"), core.Weak); err != nil {
		t.Fatal(err)
	}
	if _, err := invokeAt(c, 1, spec.Inc("ctr", 7), core.Weak); err != nil {
		t.Fatal(err)
	}
	strong, err := invokeAt(c, 0, spec.Duplicate(), core.Strong)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if !strong.Done() {
		t.Fatal("strong op must commit while a non-sequencer replica is down")
	}

	if err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Committed(0, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Committed(2, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) || len(ref) != 4 {
		t.Fatalf("recovered replica committed %d ops, sequencer %d, want 4", len(got), len(ref))
	}
	for i := range ref {
		if got[i].Dot != ref[i].Dot {
			t.Fatalf("committed order diverges at %d: %s vs %s", i, got[i].Dot, ref[i].Dot)
		}
	}
	if v, err := c.Read(2, "ctr", waitFor); err != nil || !spec.Equal(v, int64(7)) {
		t.Errorf("recovered ctr = %v (err %v), want 7", v, err)
	}
	// And it serves clients again.
	if _, err := invokeAt(c, 2, spec.Append("post"), core.Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionHealLive parks cross-cell traffic and releases it on heal:
// weak operations stay available inside the minority cell, strong
// operations from it stall until the partition heals.
func scriptPartitionHeal(t *testing.T, c *Controller) {

	if err := c.Partition([]int{0, 1}, []int{2}); err != nil {
		t.Fatal(err)
	}
	weak, err := invokeAt(c, 2, spec.Append("minority"), core.Weak)
	if err != nil {
		t.Fatal(err)
	}
	if !weak.Done() {
		t.Fatal("weak ops must stay available inside a minority cell")
	}
	strong, err := invokeAt(c, 2, spec.PutIfAbsent("k", "v"), core.Strong)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic stall check — no sleep: an inspect round-trip through
	// replica 2 proves it processed the invoke (each node's inbox is FIFO,
	// and the inspect was enqueued after it), so the forward to the
	// sequencer has been sent — and parked at the partition. A second
	// round-trip through the sequencer then proves it drained everything it
	// will ever receive while the partition holds. If the forward had
	// crossed, the completion would have been observed before that second
	// reply, so Done() here is a real verdict, not a timing accident.
	if _, err := c.Read(2, "k", waitFor); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(0, "k", waitFor); err != nil {
		t.Fatal(err)
	}
	if strong.Done() {
		t.Fatal("strong op crossed a partition to the sequencer")
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if !strong.Done() {
		t.Fatal("strong op must complete after heal")
	}
	ref, err := c.Committed(0, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 2 {
		t.Fatalf("committed %d ops, want 2 (weak update + strong put)", len(ref))
	}
}

// TestParkedMessagesSurviveCrashLive pins the simnet-matching semantics on
// the live substrate: a message parked on a partition survives a
// crash–recover of its target (the link keeps retransmitting) and is
// delivered once both the partition and the crash are gone — while traffic
// sent on an open link to a crashed replica is dropped for good.
func scriptParkedMessagesSurviveCrash(t *testing.T, c *Controller) {

	// Park an update for replica 2, then crash 2 and heal: the parked
	// message must wait for the recovery, not vanish.
	if err := c.Partition([]int{0, 1}, []int{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := invokeAt(c, 0, spec.Inc("ctr", 5), core.Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err) // majority side settles; the crashed replica is exempt
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Read(2, "ctr", waitFor); err != nil || !spec.Equal(v, int64(5)) {
		t.Errorf("recovered ctr = %v (err %v), want 5 — parked update lost", v, err)
	}
}

// TestCrashWithPendingContinuationLive: a strong call pending at a crashed
// replica survives in the durable continuation table and completes after
// recovery, once the sequencer's commit log replays.
func scriptCrashWithPendingContinuation(t *testing.T, c *Controller) {

	// Isolate replica 2's commits so the strong call is still pending when
	// the crash hits (the forward reaches the sequencer, the commit
	// broadcast parks on the partition).
	if err := c.Partition([]int{0, 1}, []int{2}); err != nil {
		t.Fatal(err)
	}
	strong, err := invokeAt(c, 2, spec.Inc("ctr", 3), core.Strong)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err) // replica 2 and its calls are exempt while crashed
	}
	if strong.Done() {
		t.Fatal("strong response reached a crashed replica's client")
	}
	if err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	if !strong.Done() {
		t.Fatal("surviving continuation not answered after recovery")
	}
	if resp := strong.Response(); !resp.Committed || !spec.Equal(resp.Value, int64(3)) {
		t.Errorf("recovered strong response = %+v, want committed 3", resp)
	}
}

// A node process keeps the newest fault view it was pushed: a controller's
// reconnect re-send can arrive after a later heal, and must not partition
// the node again.
func TestNodeIgnoresOlderFaultView(t *testing.T) {
	r := &remoteNode{cfg: NodeConfig{ID: 1}, cells: make([]int, 3), down: make([]bool, 3)}
	r.applyFaultView(7, []int{0, 0, 0}, []bool{false, false, false}) // the heal
	r.applyFaultView(6, []int{1, 0, 1}, []bool{false, false, false}) // the stale re-send
	if r.cells[0] != r.cells[1] {
		t.Fatalf("an older view re-partitioned the node: cells %v", r.cells)
	}
	r.applyFaultView(8, []int{1, 0, 1}, []bool{false, false, true})
	if r.cells[0] == r.cells[1] || !r.down[2] {
		t.Fatalf("a newer view was ignored: cells %v down %v", r.cells, r.down)
	}
}
