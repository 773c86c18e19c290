package livenet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bayou/internal/check"
	"bayou/internal/core"
	"bayou/internal/record"
	"bayou/internal/spec"
)

const waitFor = 5 * time.Second

// eventually polls cond until it holds or the deadline expires.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitFor)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

// script is one carrier-blind controller scenario: it sees only the
// Controller surface, so the table below runs it over the in-process fabric
// and — the replicas then being ServeNode goroutines behind loopback TCP —
// over the socket carrier, and both must pass the same assertions.
type script struct {
	name    string
	n       int
	variant core.Variant
	run     func(t *testing.T, c *Controller)
}

var scripts = []script{
	{"WeakInvokeResolvesImmediately", 3, core.NoCircularCausality, scriptWeakInvokeResolvesImmediately},
	{"StrongInvokeResolvesAfterCommit", 3, core.NoCircularCausality, scriptStrongInvokeResolvesAfterCommit},
	{"ConvergenceUnderConcurrentSessions", 4, core.NoCircularCausality, scriptConvergenceUnderConcurrentSessions},
	{"SessionFIFOEnforced", 2, core.NoCircularCausality, scriptSessionFIFOEnforced},
	{"MixedLevelsUnderConcurrency", 3, core.NoCircularCausality, scriptMixedLevelsUnderConcurrency},
	{"OriginalVariantConverges", 3, core.Original, scriptOriginalVariantConverges},
	{"StableNoticeAndWatch", 3, core.NoCircularCausality, scriptStableNoticeAndWatch},
	{"StopIsIdempotentAndRejectsWork", 2, core.NoCircularCausality, scriptStopIsIdempotentAndRejectsWork},
	{"InvalidReplicaAndSession", 2, core.NoCircularCausality, scriptInvalidReplicaAndSession},
	{"CrashRecoverCatchesUp", 3, core.NoCircularCausality, scriptCrashRecoverCatchesUp},
	{"PartitionHeal", 3, core.NoCircularCausality, scriptPartitionHeal},
	{"ParkedMessagesSurviveCrash", 3, core.NoCircularCausality, scriptParkedMessagesSurviveCrash},
	{"CrashWithPendingContinuation", 3, core.NoCircularCausality, scriptCrashWithPendingContinuation},
}

// TestController runs every script against both carriers.
func TestController(t *testing.T) {
	for _, sc := range scripts {
		t.Run(sc.name+"/inproc", func(t *testing.T) {
			c := NewFromConfig(Config{N: sc.n, Variant: sc.variant})
			defer c.Stop()
			sc.run(t, c)
		})
		t.Run(sc.name+"/socket", func(t *testing.T) {
			sc.run(t, newLoopback(t, sc.n, sc.variant))
		})
	}
}

// newLoopback hosts n volatile replicas with ServeNode in this process, on
// reserved loopback ports, and connects a controller to them over TCP. The
// cleanup stops the controller and waits for every node to shut down.
func newLoopback(t *testing.T, n int, variant core.Variant) *Controller {
	t.Helper()
	addrs := make([]string, n)
	held := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		held[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range held {
		ln.Close() // all n were held at once, so the ports are distinct
	}
	served := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			served <- ServeNode(NodeConfig{ID: i, Variant: variant, Addrs: addrs, Seed: int64(i + 1)})
		}(i)
	}
	c, err := NewRemote(RemoteConfig{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Stop()
		for i := 0; i < n; i++ {
			select {
			case err := <-served:
				if err != nil {
					t.Errorf("ServeNode: %v", err)
				}
			case <-time.After(waitFor):
				t.Error("a ServeNode goroutine outlived the controller's Stop")
				return
			}
		}
	})
	return c
}

// invokeAt submits on the replica's default session (session id == replica
// id, pre-opened by the recorder).
func invokeAt(c *Controller, replica int, op spec.Op, level core.Level) (*record.Call, error) {
	return c.Invoke(core.SessionID(replica), replica, op, level)
}

func scriptWeakInvokeResolvesImmediately(t *testing.T, c *Controller) {
	call, err := invokeAt(c, 1, spec.Append("hello"), core.Weak)
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 2 weak operations are bounded wait-free: the call is done
	// by the time the invoke returns.
	if !call.Done() {
		t.Fatal("weak call must resolve within the invoke step")
	}
	resp := call.Response()
	if !spec.Equal(resp.Value, "hello") {
		t.Errorf("weak response = %v, want hello", resp.Value)
	}
	if resp.Committed {
		t.Error("weak response must be tentative")
	}
}

func scriptStrongInvokeResolvesAfterCommit(t *testing.T, c *Controller) {
	call, err := invokeAt(c, 2, spec.PutIfAbsent("lock", "me"), core.Strong)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitFor)
	defer cancel()
	if err := call.WaitDone(ctx); err != nil {
		t.Fatal(err)
	}
	resp := call.Response()
	if resp.Value != true {
		t.Errorf("strong response = %v, want true", resp.Value)
	}
	if !resp.Committed {
		t.Error("strong response must be stable")
	}
}

func scriptConvergenceUnderConcurrentSessions(t *testing.T, c *Controller) {
	const (
		clients = 8
		perEach = 10
	)
	replicas := c.Replicas()

	// Several concurrent sessions share each replica — the multi-session
	// model the seed's one-call-per-replica façade could not express.
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		replica := cl % replicas
		sess := c.Recorder().OpenSession(replica)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), waitFor)
			defer cancel()
			for k := 0; k < perEach; k++ {
				call, err := c.Invoke(sess, replica, spec.Inc("ctr", 1), core.Weak)
				if err != nil {
					t.Error(err)
					return
				}
				if err := call.WaitDone(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	// All increments committed everywhere: the counter converges to
	// clients*perEach on every replica.
	want := int64(clients * perEach)
	for i := 0; i < replicas; i++ {
		v, err := c.Read(i, "ctr", waitFor)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := v.(int64); got != want {
			t.Errorf("replica %d counter = %v, want %d", i, v, want)
		}
	}
	// The recorded history is well-formed (per-session sequential) and
	// satisfies the paper's weak-level guarantee.
	c.Recorder().MarkStable()
	h, err := c.Recorder().History()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Events) != clients*perEach {
		t.Fatalf("history has %d events, want %d", len(h.Events), clients*perEach)
	}
	if rep := check.NewWitness(h).FEC(core.Weak); !rep.OK() {
		t.Errorf("FEC(weak) must hold on the live run:\n%s", rep)
	}
}

func scriptSessionFIFOEnforced(t *testing.T, c *Controller) {
	sess := c.Recorder().OpenSession(0)
	// A strong call leaves the session busy until it commits; a second
	// invocation in that window must be rejected. To make the window
	// observable we race: issue the strong call, then immediately try a
	// weak one on the same session — either the strong one already
	// resolved (fine) or the weak one errors with ErrSessionBusy.
	strong, err := c.Invoke(sess, 0, spec.Append("s"), core.Strong)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(sess, 0, spec.Append("w"), core.Weak); err != nil {
		if !errors.Is(err, record.ErrSessionBusy) {
			t.Fatalf("want ErrSessionBusy, got %v", err)
		}
	} else if !strong.Done() {
		t.Error("second invoke accepted while the first still pends")
	}
}

func scriptMixedLevelsUnderConcurrency(t *testing.T, c *Controller) {

	var wg sync.WaitGroup
	results := make([]any, 3)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			call, err := invokeAt(c, i, spec.PutIfAbsent("leader", fmt.Sprintf("replica-%d", i)), core.Strong)
			if err != nil {
				t.Error(err)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), waitFor)
			defer cancel()
			if err := call.WaitDone(ctx); err != nil {
				t.Error(err)
				return
			}
			results[i] = call.Response().Value
		}()
	}
	wg.Wait()

	// Exactly one strong putIfAbsent wins — the consensus-backed
	// semantics the paper motivates with.
	winners := 0
	for _, r := range results {
		if r == true {
			winners++
		}
	}
	if winners != 1 {
		t.Errorf("putIfAbsent winners = %d, want exactly 1 (results %v)", winners, results)
	}
}

func scriptOriginalVariantConverges(t *testing.T, c *Controller) {
	calls := make([]*record.Call, 0, 6)
	for k := 0; k < 6; k++ {
		sess := c.Recorder().OpenSession(k % 3)
		call, err := c.Invoke(sess, k%3, spec.Append(fmt.Sprintf("%d", k)), core.Weak)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call)
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitFor)
	defer cancel()
	for _, call := range calls {
		if err := call.WaitDone(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Read(0, spec.DefaultListID, waitFor)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.([]spec.Value)) != 6 {
		t.Fatalf("list = %v, want 6 entries", ref)
	}
	for i := 1; i < 3; i++ {
		v, err := c.Read(i, spec.DefaultListID, waitFor)
		if err != nil || !spec.Equal(v, ref) {
			t.Errorf("replica %d diverges: %v vs %v (%v)", i, v, ref, err)
		}
	}
}

// TestStableNoticeAndWatchOnLiveRun: a weak update's watch stream delivers
// tentative first and committed last, over real concurrency.
func scriptStableNoticeAndWatch(t *testing.T, c *Controller) {
	call, err := invokeAt(c, 1, spec.Append("n"), core.Weak)
	if err != nil {
		t.Fatal(err)
	}
	updates := call.Updates()
	if err := c.Quiesce(waitFor); err != nil {
		t.Fatal(err)
	}
	var got []record.Update
	for u := range updates {
		got = append(got, u)
	}
	if len(got) < 2 {
		t.Fatalf("watch stream = %+v, want at least tentative and committed", got)
	}
	if got[0].Status != core.StatusTentative {
		t.Errorf("first update %v, want tentative", got[0].Status)
	}
	if last := got[len(got)-1]; last.Status != core.StatusCommitted {
		t.Errorf("last update %v, want committed", last.Status)
	}
	stable, ok := call.Stable()
	if !ok {
		t.Fatal("weak update must stabilize after quiesce")
	}
	if !spec.Equal(stable.Value, got[len(got)-1].Value) {
		t.Errorf("stable value %v != final update value %v", stable.Value, got[len(got)-1].Value)
	}
}

func scriptStopIsIdempotentAndRejectsWork(t *testing.T, c *Controller) {
	c.Stop()
	c.Stop()
	if _, err := invokeAt(c, 0, spec.Append("x"), core.Weak); err == nil {
		t.Error("invoke on stopped cluster must error")
	}
	if _, err := c.Read(0, "k", time.Millisecond); err == nil {
		t.Error("read on stopped cluster must error")
	}
	if _, err := c.Committed(0, time.Millisecond); !errors.Is(err, ErrStopped) {
		t.Errorf("committed on stopped cluster: err = %v, want ErrStopped", err)
	}
	if err := c.Partition([]int{0}, []int{1}); !errors.Is(err, ErrStopped) {
		t.Errorf("partition on stopped cluster: err = %v, want ErrStopped", err)
	}
}

func scriptInvalidReplicaAndSession(t *testing.T, c *Controller) {
	if _, err := invokeAt(c, 9, spec.Append("x"), core.Weak); err == nil {
		t.Error("invalid replica must error")
	}
	if _, err := c.Invoke(core.SessionID(99), 0, spec.Append("x"), core.Weak); !errors.Is(err, record.ErrUnknownSession) {
		t.Errorf("unknown session: err = %v, want ErrUnknownSession", err)
	}
	if _, err := c.SessionCovered(core.SessionID(99), 0, waitFor); !errors.Is(err, record.ErrUnknownSession) {
		t.Errorf("coverage of an unknown session: err = %v, want ErrUnknownSession", err)
	}
	// Every replica-addressed operation validates the id once, in the
	// controller: an out-of-range id is an error on either carrier, never
	// an index panic.
	for _, r := range []int{-1, c.Replicas(), 7} {
		if _, err := c.Read(r, "k", waitFor); err == nil {
			t.Errorf("Read(%d) must error", r)
		}
		if _, err := c.Committed(r, waitFor); err == nil {
			t.Errorf("Committed(%d) must error", r)
		}
		if _, err := c.BaseLen(r, waitFor); err == nil {
			t.Errorf("BaseLen(%d) must error", r)
		}
		if _, err := c.SessionCovered(0, r, waitFor); err == nil {
			t.Errorf("SessionCovered(0, %d) must error", r)
		}
		if _, err := c.Durability(r, waitFor); err == nil {
			t.Errorf("Durability(%d) must error", r)
		}
		if err := c.Crash(r); err == nil {
			t.Errorf("Crash(%d) must error", r)
		}
		if err := c.Recover(r); err == nil {
			t.Errorf("Recover(%d) must error", r)
		}
		if c.Crashed(r) {
			t.Errorf("Crashed(%d) = true", r)
		}
	}
}
