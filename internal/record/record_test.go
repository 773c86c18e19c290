package record

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"bayou/internal/core"
	"bayou/internal/spec"
)

func dot(r core.ReplicaID, n int64) core.Dot { return core.Dot{Replica: r, EventNo: n} }

func resp(d core.Dot, op spec.Op, v spec.Value, committed bool) core.Response {
	return core.Response{Req: core.Req{Dot: d, Op: op}, Value: v, Committed: committed}
}

// invoked admits an invocation and completes it at once with the given
// dot, as a driver does when the serving replica covers it immediately.
func invoked(t *testing.T, r *Recorder, sess core.SessionID, d core.Dot, op spec.Op, level core.Level, ts int64, tobCast bool, wall int64) *Call {
	t.Helper()
	call, _, _, err := r.Admit(sess, op, level, wall)
	if err != nil {
		t.Fatal(err)
	}
	r.CompleteInvoke(call, d, ts, tobCast, wall)
	return call
}

func TestSessionBusyAndHistoryKeying(t *testing.T) {
	r := New(8)
	d1, d2 := dot(0, 1), dot(0, 2)
	// Two sessions on the same replica: each keys its own history lane.
	invoked(t, r, 5, d1, spec.Append("a"), core.Weak, 1, true, 10)
	if !r.SessionBusy(5) {
		t.Error("session 5 must be busy while its call pends")
	}
	if r.SessionBusy(6) {
		t.Error("session 6 has no calls and cannot be busy")
	}
	invoked(t, r, 6, d2, spec.Append("b"), core.Weak, 2, true, 11)
	r.Responded(resp(d1, spec.Append("a"), "a", false), 12)
	if r.SessionBusy(5) {
		t.Error("session 5 must be free after its response")
	}
	r.Responded(resp(d2, spec.Append("b"), "b", false), 13)
	h, err := r.History()
	if err != nil {
		t.Fatal(err)
	}
	if h.Events[0].Session != 5 || h.Events[1].Session != 6 {
		t.Errorf("history sessions = %d, %d, want 5, 6", h.Events[0].Session, h.Events[1].Session)
	}
	if r.TOBCastCount() != 2 {
		t.Errorf("TOBCastCount = %d, want 2", r.TOBCastCount())
	}
}

func TestNoSessionInvocationsAreNotRecorded(t *testing.T) {
	r := New(8)
	if call, _, _, err := r.Admit(-1, spec.Append("x"), core.Weak, 0); call != nil || !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("Admit(-1) = %p, %v, want no call and ErrUnknownSession", call, err)
	}
	if got := len(r.Calls()); got != 0 {
		t.Errorf("recorded %d calls, want 0", got)
	}
}

func TestCallLifecycleWeakUpdate(t *testing.T) {
	r := New(8)
	d := dot(1, 1)
	op := spec.Append("v")
	call := invoked(t, r, 3, d, op, core.Weak, 1, true, 0)
	if call.Terminal() {
		t.Fatal("fresh call cannot be terminal")
	}
	r.Transition(core.Transition{Dot: d, Session: 3, Status: core.StatusTentative, Value: "v"}, 1)
	r.Responded(resp(d, op, "v", false), 1)
	if !call.Done() || call.Terminal() {
		t.Fatal("weak update must be done but not terminal before its stable notice")
	}
	r.Transition(core.Transition{Dot: d, Session: 3, Status: core.StatusReordered, Value: "uv"}, 2)
	r.Transition(core.Transition{Dot: d, Session: 3, Status: core.StatusCommitted, Value: "uv"}, 3)
	r.StableNoticed(resp(d, op, "uv", true), 3)
	if !call.Terminal() {
		t.Fatal("stable notice must make the call terminal")
	}
	stable, ok := call.Stable()
	if !ok || !spec.Equal(stable.Value, "uv") {
		t.Fatalf("stable = %v, %v", stable, ok)
	}
	got := call.Fluctuations()
	want := []core.Status{core.StatusTentative, core.StatusReordered, core.StatusCommitted}
	if len(got) != len(want) {
		t.Fatalf("fluctuations = %+v, want %d updates", got, len(want))
	}
	for i, u := range got {
		if u.Status != want[i] {
			t.Errorf("fluctuations[%d].Status = %v, want %v", i, u.Status, want[i])
		}
	}
}

// TestUpdatesSubscriptionReplaysAndCloses: a late subscriber sees the whole
// log; the channel closes at terminal.
func TestUpdatesSubscriptionReplaysAndCloses(t *testing.T) {
	r := New(8)
	d := dot(0, 1)
	op := spec.Append("x")
	call := invoked(t, r, 2, d, op, core.Weak, 1, true, 0)
	r.Transition(core.Transition{Dot: d, Status: core.StatusTentative, Value: "x"}, 1)
	r.Responded(resp(d, op, "x", false), 1)

	early := call.Updates() // subscribed mid-lifecycle
	r.Transition(core.Transition{Dot: d, Status: core.StatusCommitted, Value: "x"}, 2)
	r.StableNoticed(resp(d, op, "x", true), 2)
	late := call.Updates() // subscribed after terminal: pure replay

	for name, ch := range map[string]<-chan Update{"early": early, "late": late} {
		var got []Update
		deadline := time.After(5 * time.Second)
		for {
			select {
			case u, ok := <-ch:
				if !ok {
					goto drained
				}
				got = append(got, u)
			case <-deadline:
				t.Fatalf("%s subscription never closed", name)
			}
		}
	drained:
		if len(got) != 2 || got[0].Status != core.StatusTentative || got[1].Status != core.StatusCommitted {
			t.Errorf("%s subscription = %+v", name, got)
		}
	}
}

// TestStrongAndReadOnlyTerminality: a committed response and a never-cast
// response are terminal at once — nothing further can arrive.
func TestStrongAndReadOnlyTerminality(t *testing.T) {
	r := New(8)
	strongDot, roDot := dot(0, 1), dot(0, 2)
	strong := invoked(t, r, 1, strongDot, spec.Append("s"), core.Strong, 1, true, 0)
	r.Responded(resp(strongDot, spec.Append("s"), "s", true), 1)
	if !strong.Terminal() {
		t.Error("committed strong response must be terminal")
	}
	ro := invoked(t, r, 2, roDot, spec.ListRead(), core.Weak, 2, false, 0)
	r.Responded(resp(roDot, spec.ListRead(), "s", false), 2)
	if !ro.Terminal() {
		t.Error("never-TOB-cast weak read must be terminal at its response")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := ro.WaitTerminal(ctx); err != nil {
		t.Errorf("WaitTerminal on a terminal call must return: %v", err)
	}
}

// TestConcurrentPublishAndSubscribe exercises the subscription machinery
// under the race detector: one goroutine publishes transitions while others
// subscribe and drain.
func TestConcurrentPublishAndSubscribe(t *testing.T) {
	r := New(8)
	d := dot(0, 1)
	op := spec.Append("x")
	call := invoked(t, r, 1, d, op, core.Weak, 1, true, 0)

	const updates = 100
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for range call.Updates() {
				n++
			}
			if n == 0 {
				t.Error("subscriber saw no updates")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Transition(core.Transition{Dot: d, Status: core.StatusTentative, Value: int64(0)}, 0)
		r.Responded(resp(d, op, int64(0), false), 0)
		for i := 1; i < updates; i++ {
			r.Transition(core.Transition{Dot: d, Status: core.StatusReordered, Value: int64(i)}, int64(i))
		}
		r.Transition(core.Transition{Dot: d, Status: core.StatusCommitted, Value: int64(updates)}, updates)
		r.StableNoticed(resp(d, op, int64(updates), true), updates)
	}()
	wg.Wait()
}

// TestHistorySnapshotWhileResponding: History() must hand out snapshots,
// not live event records — assembling a history (and reading it) while
// responses keep landing is exactly what the live driver does.
func TestHistorySnapshotWhileResponding(t *testing.T) {
	const n = 200
	r := New(n)
	ops := make([]core.Dot, n)
	for i := range ops {
		ops[i] = dot(0, int64(i+1))
		invoked(t, r, core.SessionID(i), ops[i], spec.Append("x"), core.Weak, int64(i), true, int64(i))
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, d := range ops {
			r.Responded(resp(d, spec.Append("x"), "x", false), 1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			h, err := r.History()
			if err != nil {
				t.Error(err)
				return
			}
			for _, e := range h.Events {
				_ = e.Pending
				_ = e.RVal
			}
		}
	}()
	wg.Wait()
}

// --- session-guarantee table ------------------------------------------------

func TestGuaranteeVectorsAndDemands(t *testing.T) {
	r := New(10)
	r.SetGuarantees(7, core.ReadYourWrites|core.MonotonicReads, core.WaitForCoverage)

	// A write enters the write vector (→ read demand under RYW).
	d1 := dot(0, 1)
	call, inv, mode, err := r.Admit(7, spec.Append("a"), core.Weak, 1)
	if err != nil || mode != core.WaitForCoverage || !inv.Read.Empty() || !inv.Write.Empty() {
		t.Fatalf("Admit(7) = %+v, %v, %v, want empty demands, wait mode", inv, mode, err)
	}
	r.CompleteInvoke(call, d1, 10, true, 1)
	read, write, fence := r.Demands(7, true)
	if len(read.Frontier) != 1 || read.Frontier[0] != d1 || fence != 10 {
		t.Fatalf("read demand %+v fence %d, want [%s] 10", read, fence, d1)
	}
	if !write.Empty() {
		t.Fatalf("write demand %+v, want empty (no MW/WFR)", write)
	}

	// The response's trace feeds the read vector (updating dots only).
	other := dot(1, 1)
	invoked(t, r, 8, other, spec.Append("b"), core.Weak, 5, true, 2)
	ro := dot(1, 2)
	invoked(t, r, 9, ro, spec.ListRead(), core.Weak, 6, false, 3)
	r.Responded(core.Response{
		Req: core.Req{Dot: d1, Op: spec.Append("a")}, Value: "a",
		Trace: []core.Dot{other, ro},
	}, 4)
	read, _, _ = r.Demands(7, false)
	found := map[core.Dot]bool{}
	for _, d := range read.Frontier {
		found[d] = true
	}
	if !found[d1] || !found[other] {
		t.Fatalf("read demand lost dots: %+v", read)
	}
	if found[ro] {
		t.Fatal("read-only dots must never be demanded")
	}

	// A commit collapses the demand into the watermark.
	r.TOBDelivered(d1, 1)
	r.TOBDelivered(other, 2)
	read, _, _ = r.Demands(7, false)
	if read.CommitLen != 2 || len(read.Frontier) != 0 {
		t.Fatalf("compacted read demand %+v, want watermark 2", read)
	}
}

func TestPendingInvokeLifecycle(t *testing.T) {
	r := New(8)
	r.SetGuarantees(3, core.Causal, core.WaitForCoverage)
	call, _, _, err := r.Admit(3, spec.Append("x"), core.Weak, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.SessionBusy(3) {
		t.Error("a pending invoke must mark the session busy")
	}
	if (call.Dot() != core.Dot{}) {
		t.Error("pending calls have no dot yet")
	}
	if _, _, _, err := r.Admit(3, spec.Append("y"), core.Weak, 2); !errors.Is(err, ErrSessionBusy) {
		t.Error("a second pending invoke on the session must be rejected")
	}
	if got := len(r.Calls()); got != 1 {
		t.Fatalf("pending call must be listed, got %d", got)
	}

	d := dot(2, 1)
	r.CompleteInvoke(call, d, 42, true, 9)
	if !r.SessionBusy(3) {
		t.Error("session stays busy until the response")
	}
	if call.Dot() != d {
		t.Errorf("bound dot = %s, want %s", call.Dot(), d)
	}
	if r.Call(d) != call {
		t.Error("completed call must be indexed by dot")
	}
	r.Responded(resp(d, spec.Append("x"), "x", false), 10)
	if r.SessionBusy(3) {
		t.Error("session must be free after the response")
	}
	h, err := r.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Events) != 1 || h.Events[0].Guarantees != core.Causal {
		t.Fatalf("history events %+v must carry the guarantee mask", h.Events)
	}
	// The session's own write entered its write vector after the demand
	// snapshot: the recorded demand excludes the event's own dot.
	if len(h.Events[0].ReadVec.Frontier) != 0 {
		t.Errorf("first event's demand must be empty, got %+v", h.Events[0].ReadVec)
	}
	read, _, _ := r.Demands(3, true)
	if len(read.Frontier) != 1 || read.Frontier[0] != d {
		t.Errorf("write vector must hold the completed dot: %+v", read)
	}
}

// TestAdmitFreezesDemandsAndCastGate pins what Admit freezes into the
// invocation: the session's demands as Demands computes them, kept as the
// event's witnesses even when a commit lands before the replica accepts
// (re-deriving then would compact the frontier dot into a watermark the
// replica never checked), and the lease-read cast gate, proven only for a
// strong read with lease tracking on.
func TestAdmitFreezesDemandsAndCastGate(t *testing.T) {
	r := New(4)
	r.EnableLeaseTracking()
	r.SetGuarantees(3, core.ReadYourWrites, core.WaitForCoverage)
	w := dot(3, 1)
	invoked(t, r, 3, w, spec.Append("w"), core.Weak, 7, true, 1)
	r.Responded(resp(w, spec.Append("w"), "w", false), 2)

	read := spec.ListRead()
	call, inv, _, err := r.Admit(3, read, core.Strong, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Read.Frontier) != 1 || inv.Read.Frontier[0] != w || inv.Fence != 7 {
		t.Errorf("frozen read demand %+v fence %d, want [%s] 7", inv.Read, inv.Fence, w)
	}
	if inv.CastOK {
		t.Error("cast gate proven while the session's write is still in flight")
	}
	r.TOBDelivered(w, 1) // lands between admission and acceptance
	r.CompleteInvoke(call, dot(0, 1), 8, true, 4)
	h, err := r.History()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Events[1].ReadVec; got.CommitLen != 0 || len(got.Frontier) != 1 {
		t.Errorf("witness %+v re-derived after admission, want the frozen frontier", got)
	}
	r.TOBDelivered(dot(0, 1), 2)
	r.Responded(resp(dot(0, 1), read, "w", true), 5)

	if _, inv, _, _ := r.Admit(3, read, core.Strong, 6); !inv.CastOK || inv.CastCeil != 2 {
		t.Errorf("cast gate (%d, %v), want (2, true) once every cast is delivered", inv.CastCeil, inv.CastOK)
	}
	if _, inv, _, _ := r.Admit(2, read, core.Weak, 6); inv.CastOK {
		t.Error("cast gate proven for a weak read")
	}
	if _, inv, _, _ := r.Admit(1, read, core.Strong, 6); !inv.CastOK || inv.CastCeil != 0 {
		t.Errorf("session that never cast: gate (%d, %v), want (0, true)", inv.CastCeil, inv.CastOK)
	}
	if _, inv, _, _ := New(1).Admit(0, read, core.Strong, 0); inv.CastOK {
		t.Error("cast gate proven without lease tracking")
	}
}

func TestCancelInvokeReleasesSession(t *testing.T) {
	r := New(8)
	r.SetGuarantees(4, core.ReadYourWrites, core.FailFast)
	call, _, mode, err := r.Admit(4, spec.Append("x"), core.Weak, 1)
	if err != nil || mode != core.FailFast {
		t.Fatalf("Admit(4) mode %v err %v, want fail-fast", mode, err)
	}
	r.CancelInvoke(call)
	if r.SessionBusy(4) {
		t.Error("cancel must release the busy mark")
	}
	if got := len(r.Calls()); got != 0 {
		t.Errorf("cancelled call must be delisted, got %d", got)
	}
	if _, _, _, err := r.Admit(4, spec.Append("y"), core.Weak, 2); err != nil {
		t.Errorf("session must accept a retry after cancel: %v", err)
	}
}

// --- session table -----------------------------------------------------------

// TestSessionTable pins the registry the substrates used to keep one copy
// each of: default sessions, id minting, the busy-checked re-bind, the
// unknown-session error, and the binding outliving a cancelled invocation.
func TestSessionTable(t *testing.T) {
	const n = 3
	r := New(n)
	for i := 0; i < n; i++ {
		if rep, ok := r.SessionReplica(core.SessionID(i)); !ok || rep != i {
			t.Errorf("default session %d bound to (%d, %v), want (%d, true)", i, rep, ok, i)
		}
	}
	if a, b := r.OpenSession(2), r.OpenSession(2); a != n || b != n+1 {
		t.Errorf("fresh ids = %d, %d, want %d, %d", a, b, n, n+1)
	}
	if rep, ok := r.SessionReplica(n); !ok || rep != 2 {
		t.Errorf("minted session bound to (%d, %v), want (2, true)", rep, ok)
	}

	for _, s := range []core.SessionID{-1, n + 2, 99} {
		if _, ok := r.SessionReplica(s); ok {
			t.Errorf("SessionReplica(%d) reports a binding", s)
		}
		if err := r.BindSession(s, 0); !errors.Is(err, ErrUnknownSession) {
			t.Errorf("BindSession(%d) = %v, want ErrUnknownSession", s, err)
		}
		if _, _, _, err := r.Admit(s, spec.Append("x"), core.Weak, 0); !errors.Is(err, ErrUnknownSession) {
			t.Errorf("Admit(%d) = %v, want ErrUnknownSession", s, err)
		}
	}
	if got := len(r.Calls()); got != 0 {
		t.Fatalf("rejected invocations left %d calls behind", got)
	}

	call, _, _, err := r.Admit(n, spec.Append("x"), core.Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PendingCall(n); got != call {
		t.Errorf("PendingCall = %p, want the pending call %p", got, call)
	}
	if err := r.BindSession(n, 0); !errors.Is(err, ErrSessionBusy) {
		t.Errorf("re-bind of a busy session = %v, want ErrSessionBusy", err)
	}
	if rep, _ := r.SessionReplica(n); rep != 2 {
		t.Errorf("refused re-bind moved the session to %d", rep)
	}
	r.CancelInvoke(call)
	if rep, ok := r.SessionReplica(n); !ok || rep != 2 {
		t.Errorf("binding after CancelInvoke = (%d, %v), want (2, true)", rep, ok)
	}
	if r.PendingCall(n) != nil {
		t.Error("cancelled call still pending")
	}
	if err := r.BindSession(n, 0); err != nil {
		t.Fatalf("re-bind of the released session: %v", err)
	}
	if rep, _ := r.SessionReplica(n); rep != 0 {
		t.Errorf("session bound to %d after re-bind, want 0", rep)
	}
}
