package bayou

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"bayou/internal/check"
	"bayou/internal/core"
	"bayou/internal/launch"
	"bayou/internal/livenet"
	"bayou/internal/store"
)

// The process-level chaos soak: seeded schedules of SIGKILL+restart,
// SIGSTOP/SIGCONT, torn log files, partitions and wire-level frame
// faults (drop/duplicate/reorder/bit-flip/truncate/delay) against replicas
// that are separate OS processes with durable data dirs — interleaved with
// weak, strong and transactional traffic and a guarantee-carrying mobile
// session, then a repair finale, convergence, and the paper's checkers.
// Every schedule is a pure function of its seed.
//
//	CHAOS_SOAK_RUNS=<n>  override the schedule count (default 3, 1 under -short)
//	CHAOS_SOAK_SEED=<s>  run a single schedule
//
// What distinguishes this from TestSocketFaultSoak: there the faults are
// protocol-level (the node is told to drop state), here they are operating
// on the process and the wire — kill -9 mid-burst, truncated log files,
// frames corrupted in flight — and recovery must come from the store
// layer's recovery ladder plus the boot re-announcement, not from
// a cooperating peer protocol.

// newChaosCluster spawns a durable subprocess deployment with the given
// launch options and connects a façade cluster to it. The deployment is
// returned too, for the process-level fault plane (Kill/Freeze/Restart)
// and data-dir access.
func newChaosCluster(t *testing.T, o launch.Options) (*Cluster, *launch.Deployment) {
	t.Helper()
	d, err := launch.StartWith(o)
	if err != nil {
		t.Fatalf("launching %d bayou-node processes: %v", o.N, err)
	}
	t.Cleanup(func() {
		d.Stop()
		if t.Failed() {
			if logs := d.Logs(); logs != "" {
				t.Logf("node process logs:\n%s", logs)
			}
			t.Logf("node data dirs kept at %s", d.Dir)
		} else {
			d.Cleanup()
		}
	})
	c, err := NewLive(WithPeers(d.Addrs...))
	if err != nil {
		t.Fatalf("connecting to node processes: %v\nnode logs:\n%s", err, d.Logs())
	}
	return c, d
}

// remote reaches through the façade to the livenet controller — same-package
// access for durability introspection the public API deliberately does not
// carry.
func remote(t *testing.T, c *Cluster) *livenet.Controller {
	t.Helper()
	ld, ok := c.Driver().(*liveDriver)
	if !ok {
		t.Fatalf("driver is %T, want *liveDriver", c.Driver())
	}
	return ld.c
}

// TestDriverSocketDurableRestart is the focused recovery check: a node is
// SIGKILLed (no drain, no final save) and restarted on its data dir, and
// must come back from its own disk — log replay, zero peer state
// transfers — with the committed prefix intact and the deployment still
// converging.
func TestDriverSocketDurableRestart(t *testing.T) {
	const n = 3
	c, d := newChaosCluster(t, launch.Options{N: n, ExtraArgs: []string{"-checkpoint-every", "3"}})
	defer c.Close()

	for i := 0; i < 6; i++ {
		s, err := c.Session(i % n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Invoke(Inc("ctr", 1), Weak); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Settle(); err != nil {
		t.Fatalf("settle before kill: %v", err)
	}
	rm := remote(t, c)
	before, err := rm.Durability(2, liveTimeout)
	if err != nil {
		t.Fatalf("durability(2) before kill: %v", err)
	}
	if before.Loaded || before.Saves == 0 {
		t.Fatalf("pre-kill durability = %+v, want fresh boot (Loaded=false) with saves accumulated", before)
	}

	if err := d.Kill(2); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(2); err != nil {
		t.Fatal(err)
	}
	// Wait for the recovered process to serve before issuing more traffic:
	// its boot resync must go out while the peers' checkpoint base is still
	// behind its restored cursor, otherwise catch-up legitimately becomes a
	// state transfer and the from-disk assertion below would be racing the
	// checkpoint cadence, not testing recovery.
	after, err := rm.Durability(2, liveTimeout)
	if err != nil {
		t.Fatalf("durability(2) after restart: %v", err)
	}
	if !after.Loaded {
		t.Errorf("restarted node did not replay its log: %+v", after)
	}
	if after.Gen == 0 {
		t.Errorf("restarted node loaded generation 0: %+v", after)
	}
	// More traffic across the restart, then full convergence.
	for i := 0; i < 4; i++ {
		s, err := c.Session(i % 2) // invoke away from the recovering node
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Invoke(Inc("ctr", 1), Weak); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Settle(); err != nil {
		t.Fatalf("settle after restart: %v", err)
	}

	after, err = rm.Durability(2, liveTimeout)
	if err != nil {
		t.Fatalf("durability(2) after settle: %v", err)
	}
	if after.XfersIn != 0 {
		t.Errorf("restarted node took %d peer state transfers, want 0 (recovery must come from disk)", after.XfersIn)
	}
	v, err := c.Read(2, "ctr")
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(v, int64(10)) {
		t.Errorf("ctr on the recovered node = %v, want 10", v)
	}
	for r := 0; r < n; r++ {
		vr, err := c.Read(r, "ctr")
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(vr, v) {
			t.Errorf("ctr diverges after recovery: replica 2 %v, replica %d %v", v, r, vr)
		}
	}
}

// TestDriverSocketParkedInvokeSurvivesKill: a guarantee-gated invocation
// parked on coverage was already accepted, so SIGKILLing the node that
// holds it must not lose it — the restarted process completes it once it
// catches up.
func TestDriverSocketParkedInvokeSurvivesKill(t *testing.T) {
	const n = 3
	c, d := newChaosCluster(t, launch.Options{N: n})
	defer c.Close()

	gs, err := c.Session(1, WithGuarantees(ReadYourWrites))
	if err != nil {
		t.Fatal(err)
	}
	// Cut replica 2 off so it cannot see the session's write at 1.
	if err := c.Partition([]int{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Invoke(SetAdd("gset", "seen"), Weak); err != nil {
		t.Fatal(err)
	}
	if err := gs.Bind(2); err != nil {
		t.Fatal(err)
	}
	call, err := gs.Invoke(SetAdd("gset", "parked"), Weak)
	if err != nil {
		t.Fatal(err)
	}
	if call.Done() {
		t.Fatal("the invocation at the cut-off replica completed; want it parked on coverage")
	}

	if err := d.Kill(2); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(2); err != nil {
		t.Fatal(err)
	}
	if _, err := remote(t, c).Durability(2, liveTimeout); err != nil {
		t.Fatalf("durability(2) after restart: %v", err)
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatalf("settle after restart: %v", err)
	}
	if !call.Done() {
		t.Fatal("the parked invocation was lost with the process")
	}
	for r := 0; r < n; r++ {
		v, err := c.Read(r, "set/gset")
		if err != nil {
			t.Fatal(err)
		}
		if s := fmt.Sprint(v); !strings.Contains(s, "parked") || !strings.Contains(s, "seen") {
			t.Errorf("gset at replica %d = %s, want both adds", r, s)
		}
	}
}

// TestDriverSocketFrozenNodeTimeout pins the controller's RPC deadline: a
// SIGSTOP'd node must surface as an error within the caller's timeout, not
// hang the controller, and the node must answer again after SIGCONT.
func TestDriverSocketFrozenNodeTimeout(t *testing.T) {
	const n = 3
	c, d := newChaosCluster(t, launch.Options{N: n})
	defer c.Close()

	s, err := c.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke(Inc("ctr", 7), Weak); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := d.Freeze(1); err != nil {
		t.Fatal(err)
	}
	rm := remote(t, c)
	start := time.Now()
	if _, err := rm.Read(1, "ctr", 2*time.Second); err == nil {
		t.Fatal("read from a SIGSTOP'd node succeeded, want a deadline error")
	}
	if waited := time.Since(start); waited > 15*time.Second {
		t.Fatalf("read from a frozen node took %v to fail, deadline did not bound it", waited)
	}
	if err := d.Thaw(1); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read(1, "ctr")
	if err != nil {
		t.Fatalf("read after thaw: %v", err)
	}
	if !Equal(v, int64(7)) {
		t.Errorf("ctr after thaw = %v, want 7", v)
	}
}

// TestChaosSoak is the seeded schedule corpus.
func TestChaosSoak(t *testing.T) {
	runs := 3
	if testing.Short() {
		runs = 1
	}
	if env := os.Getenv("CHAOS_SOAK_RUNS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("CHAOS_SOAK_RUNS=%q: %v", env, err)
		}
		runs = n
	}
	const base = 900_000
	if env := os.Getenv("CHAOS_SOAK_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SOAK_SEED=%q: %v", env, err)
		}
		chaosSoakRun(t, seed)
		return
	}
	for i := 0; i < runs; i++ {
		seed := int64(base + i)
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			chaosSoakRun(t, seed)
		})
	}
}

// stuckCalls describes, for a failed settle, every call that is not
// terminal and where its dot stands on each replica.
func stuckCalls(t *testing.T, c *Cluster) string {
	var b strings.Builder
	rm := remote(t, c)
	for _, call := range c.Calls() {
		if call.Terminal() {
			continue
		}
		replica, _ := c.rec.SessionReplica(call.Session())
		fmt.Fprintf(&b, "\nstuck: call %s %s at replica %d, done %v:", call.Dot(), call.Op().Name(), replica, call.Done())
		for r := 0; r < rm.Replicas(); r++ {
			suffix, err := rm.Committed(r, liveTimeout)
			if err != nil {
				fmt.Fprintf(&b, " r%d %v;", r, err)
				continue
			}
			pos := -1
			for i, req := range suffix {
				if req.Dot == call.Dot() {
					pos = i
				}
			}
			du, _ := rm.Durability(r, liveTimeout)
			fmt.Fprintf(&b, " r%d committed at %d of %d (loaded %v gen %d);", r, pos, len(suffix), du.Loaded, du.Gen)
		}
	}
	return b.String()
}

// chaosTotal is the bank sum the transfer units shuffle; conservation at
// every boundary is transactional atomicity, and conservation at the
// converged store catches a recovery that re-minted or dropped a transfer.
const chaosTotal = 100

// chaosSoakRun executes one seeded schedule against a fresh 3-node durable
// subprocess deployment. Failures print the decoded action list, the node
// logs (via the cluster cleanup), and the replay instructions.
func chaosSoakRun(t *testing.T, seed int64) {
	t.Helper()
	const n = 3
	rng := rand.New(rand.NewSource(seed))

	// The seed sweeps the environment: wire chaos on two thirds of the
	// corpus (one third with mid-frame truncation resets too), checkpoint
	// cadence on half, so kill/restart races checkpoint truncation and the
	// frame CRC path in the same runs.
	var o launch.Options
	o.N = n
	o.Seed = seed
	switch rng.Intn(3) {
	case 1:
		o.Chaos = "drop=0.02,dup=0.02,reorder=0.03,delay=0.04,delaymax=2ms"
	case 2:
		o.Chaos = "drop=0.01,dup=0.01,flip=0.01,trunc=0.004,delay=0.03,delaymax=2ms"
	}
	cadence := []int{0, 3}[rng.Intn(2)]
	if cadence > 0 {
		o.ExtraArgs = append(o.ExtraArgs, "-checkpoint-every", strconv.Itoa(cadence))
	}
	c, d := newChaosCluster(t, o)
	defer c.Close()

	var actions []string
	act := func(format string, args ...any) {
		actions = append(actions, fmt.Sprintf(format, args...))
	}
	fail := func(format string, args ...any) {
		t.Fatalf("seed %d: %s\nactions: %v\nreplay: CHAOS_SOAK_SEED=%d go test -run TestChaosSoak .",
			seed, fmt.Sprintf(format, args...), actions, seed)
	}
	act("chaos %q; checkpoint cadence %d", o.Chaos, cadence)

	// Process-level fault state. The sequencer (replica 0) is never killed
	// or frozen — same restriction as the protocol-level soaks — and at
	// most one node is killed and one frozen at a time, so a majority
	// including the sequencer always runs.
	killed := -1 // node currently down to SIGKILL, -1 none
	frozen := -1 // node currently stopped by SIGSTOP, -1 none
	usable := func() []int {
		out := []int{0}
		for i := 1; i < n; i++ {
			if i != killed && i != frozen {
				out = append(out, i)
			}
		}
		return out
	}

	invoke := func(replica int, op Op, level Level, name string) {
		s, err := c.Session(replica)
		if err != nil {
			fail("session@%d: %v", replica, err)
		}
		if _, err := s.Invoke(op, level); err != nil {
			fail("%s@%d: %v", name, replica, err)
		}
		act("%s@%d", name, replica)
	}

	gs, err := c.Session(1+int(seed%2), WithGuarantees(ReadYourWrites|MonotonicReads))
	if err != nil {
		fail("guarantee session: %v", err)
	}
	act("guarantee session @%d", gs.Replica())
	gsIdle := func() bool { return gs.Last() == nil || gs.Last().Done() }

	// Seed the bank; the schedule's transfers then conserve chaosTotal.
	invoke(0, Deposit("a0", chaosTotal), Weak, fmt.Sprintf("seed deposit(a0,%d)", chaosTotal))
	acct := func() string { return "a" + strconv.Itoa(rng.Intn(3)) }

	steps := 14 + rng.Intn(10)
	for i := 0; i < steps; i++ {
		up := usable()
		switch rng.Intn(20) {
		case 0, 1, 2, 3, 4: // weak invocation somewhere usable
			r := up[rng.Intn(len(up))]
			dlt := int64(1 + rng.Intn(5))
			invoke(r, Inc("ctr", dlt), Weak, fmt.Sprintf("weak inc(%d)", dlt))
		case 5, 6, 7: // transfer unit, mostly weak
			r := up[rng.Intn(len(up))]
			from, to := acct(), acct()
			amt := int64(1 + rng.Intn(60))
			level := Weak
			if rng.Intn(4) == 0 {
				level = Strong
			}
			invoke(r, TxnOp(Require(Withdraw(from, amt)), Do(Deposit(to, amt))),
				level, fmt.Sprintf("%v txn %s→%s %d", level, from, to, amt))
		case 8, 9: // strong invocation (no wait: may starve until the finale)
			r := up[rng.Intn(len(up))]
			invoke(r, PutIfAbsent("k"+strconv.Itoa(rng.Intn(2)), r), Strong, "strong putIfAbsent")
		case 10, 11: // SIGKILL a non-sequencer: no drain, no final save
			if killed >= 0 {
				continue
			}
			r := 1 + rng.Intn(n-1)
			if r == frozen {
				continue
			}
			if err := d.Kill(r); err != nil {
				fail("kill %d: %v", r, err)
			}
			killed = r
			act("SIGKILL %d", r)
		case 12, 13: // restart the killed node, sometimes tearing copy A of its newest log segment first
			if killed < 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				if path, ok := store.NewestPath(d.DataDir(killed)); ok {
					if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
						cut := rng.Int63n(fi.Size())
						if err := os.Truncate(path, cut); err != nil {
							fail("tearing %s at %d: %v", path, cut, err)
						}
						act("tear newest log segment of %d at offset %d/%d", killed, cut, fi.Size())
					}
				}
			}
			if err := d.Restart(killed); err != nil {
				fail("restart %d: %v", killed, err)
			}
			// Wait for the new process to serve. Until the controller's read
			// loop sees the old stream end, an invocation can still be
			// written to the dead process and fail as "stream lost", an
			// ambiguous outcome no retry may paper over. The probe is a
			// query, which retries on stream loss.
			if _, err := remote(t, c).Durability(killed, liveTimeout); err != nil {
				fail("restarted %d never served: %v", killed, err)
			}
			act("restart %d", killed)
			killed = -1
		case 14: // SIGSTOP a non-sequencer
			if frozen >= 0 {
				continue
			}
			r := 1 + rng.Intn(n-1)
			if r == killed {
				continue
			}
			if err := d.Freeze(r); err != nil {
				fail("freeze %d: %v", r, err)
			}
			frozen = r
			act("SIGSTOP %d", r)
		case 15: // SIGCONT
			if frozen < 0 {
				continue
			}
			if err := d.Thaw(frozen); err != nil {
				fail("thaw %d: %v", frozen, err)
			}
			act("SIGCONT %d", frozen)
			frozen = -1
		case 16: // partition one replica against the rest
			r := rng.Intn(n)
			if err := c.Partition([]int{r}); err != nil {
				fail("partition {%d}: %v", r, err)
			}
			act("partition {%d} | rest", r)
		case 17: // heal
			if err := c.Heal(); err != nil {
				fail("heal: %v", err)
			}
			act("heal")
		case 18: // a guarded operation on the mobile session
			ok := gs.Replica() != killed && gs.Replica() != frozen
			if !ok || !gsIdle() {
				continue
			}
			if _, err := gs.Invoke(SetAdd("gset", strconv.Itoa(rng.Intn(8))), Weak); err != nil {
				fail("guarantee setAdd: %v", err)
			}
			act("guarantee setAdd@%d", gs.Replica())
		default: // migrate the guarantee session to a usable replica
			if !gsIdle() {
				continue
			}
			r := up[rng.Intn(len(up))]
			if err := gs.Bind(r); err != nil {
				fail("guarantee bind %d: %v", r, err)
			}
			act("guarantee bind %d", r)
		}
	}

	// Repair finale: every process running and scheduled, network whole.
	if frozen >= 0 {
		if err := d.Thaw(frozen); err != nil {
			fail("final thaw %d: %v", frozen, err)
		}
		frozen = -1
	}
	if killed >= 0 {
		if err := d.Restart(killed); err != nil {
			fail("final restart %d: %v", killed, err)
		}
		killed = -1
	}
	if err := c.Heal(); err != nil {
		fail("final heal: %v", err)
	}
	act("thaw all; restart all; heal; settle")
	// Convergence is an eventual property: one retry doubles the quiesce
	// window on a loaded machine (CI's race job runs package suites in
	// parallel), while a genuinely stranded call fails both attempts.
	settle := func(stage string) {
		if err := c.Settle(); err == nil {
			return
		} else if err2 := c.Settle(); err2 != nil {
			fail("%s: %v%s", stage, err2, stuckCalls(t, c))
		}
	}
	settle("settle after repair")
	c.MarkStable()
	for r := 0; r < n; r++ {
		s, err := c.Session(r)
		if err != nil {
			fail("probe session: %v", err)
		}
		if _, err := s.Invoke(ListRead(), Weak); err != nil {
			fail("probe@%d: %v", r, err)
		}
	}
	settle("settle after probes")

	// Liveness: every call terminal after repair — including calls whose
	// node died with them pending.
	for _, call := range c.Calls() {
		if !call.Done() {
			fail("call %s (%s) never completed", call.Dot(), call.Op().Name())
		}
	}
	// Zero re-minted dots: a recovered node that reused a dot for a new
	// operation would collide either in the recorder (two calls, one dot)
	// or in a committed order (one dot twice).
	seen := make(map[string]bool)
	for _, call := range c.Calls() {
		dot := fmt.Sprint(call.Dot())
		if seen[dot] {
			fail("dot %s minted twice (recovery re-minted)", dot)
		}
		seen[dot] = true
	}
	// Convergence: identical absolute committed lengths, no dot twice in
	// any committed order, identical registers everywhere.
	lens := make([]int, n)
	for r := 0; r < n; r++ {
		base, err := c.CheckpointedLen(r)
		if err != nil {
			fail("CheckpointedLen(%d): %v", r, err)
		}
		suffix, err := c.Driver().Committed(r)
		if err != nil {
			fail("Committed(%d): %v", r, err)
		}
		dots := make(map[string]bool, len(suffix))
		for _, req := range suffix {
			ds := fmt.Sprint(req.Dot)
			if dots[ds] {
				fail("replica %d committed dot %s twice", r, ds)
			}
			dots[ds] = true
		}
		lens[r] = base + len(suffix)
	}
	for r := 1; r < n; r++ {
		if lens[r] != lens[0] {
			fail("absolute committed lengths diverge: %v", lens)
		}
	}
	for _, reg := range []string{"ctr", "gset", "k0", "k1", "acct/a0", "acct/a1", "acct/a2"} {
		v0, err := c.Read(0, reg)
		if err != nil {
			fail("Read(0, %s): %v", reg, err)
		}
		for r := 1; r < n; r++ {
			vr, err := c.Read(r, reg)
			if err != nil {
				fail("Read(%d, %s): %v", r, reg, err)
			}
			if !Equal(v0, vr) {
				fail("register %q diverges: replica 0 %v, replica %d %v", reg, v0, r, vr)
			}
		}
	}
	// Money neither minted nor destroyed across every kill, tear and
	// corrupted frame.
	var sum int64
	for i := 0; i < 3; i++ {
		v, err := c.Read(0, "acct/a"+strconv.Itoa(i))
		if err != nil {
			fail("Read(acct/a%d): %v", i, err)
		}
		if amt, ok := v.(int64); ok {
			sum += amt
		}
	}
	if sum != chaosTotal {
		fail("account sum = %d, want the seeded %d (a recovery tore a transfer)", sum, chaosTotal)
	}
	// The paper's guarantees, transactional atomicity, and the mobile
	// session's bundle.
	h, err := c.History()
	if err != nil {
		fail("history: %v", err)
	}
	w := check.NewWitness(h)
	for name, rep := range map[string]check.Report{
		"FEC(weak)":   w.FEC(core.Weak),
		"Seq(strong)": w.Seq(core.Strong),
	} {
		if !rep.OK() {
			fail("%s violated:\n%s", name, rep)
		}
	}
	if rep := w.TxnAtomicity(check.SumConserved("acct/", 0, chaosTotal)); !rep.OK() {
		fail("TxnAtomicity violated:\n%s", rep)
	}
	if rep := w.Guarantees(ReadYourWrites | MonotonicReads); !rep.OK() {
		fail("session guarantees violated:\n%s", rep)
	}
}
