package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"bayou"
)

// runRecover is sock-recover: the durable cluster of sock-durable, one
// client goroutine at replica 1, and a fixed script per cycle —
// recoverPhaseOps of the mix, SIGKILL node 2, recoverPhaseOps more while it
// is down, restart it from its data dir, then wait until it answers and
// until it shows every acknowledged increment. Cycles repeat until
// cfg.seconds have passed.
//
// Both phases run at replica 1. (The issue put the second phase at replica
// 0, the sequencer; strong operations take 3.5 ms there against 8.6 ms at
// replica 1 and weak ones stabilize in 0.03 ms against 3 ms, so every
// median of the half-and-half mix fell into one mode or the other from run
// to run — 28% and 107% spread. One client that keeps working at its
// replica while another replica dies and comes back gives one mode.)
//
// ops_per_s counts the time inside the two operation phases only: the
// waits for the restarted node are reported on their own (launch.*), and
// folding their two modes (the anti-entropy tick) into the throughput would
// only make it noisy.
func runRecover(ctx context.Context, cfg runConfig, tr *tracer, t *tally, m map[string]float64) (bool, error) {
	dep, setups, err := startRepeated(ctx, cfg, sockDurable, tr)
	if err != nil {
		return false, err
	}
	defer dep.stop()
	w := dep.workers[0]
	client := w.sessions[0]
	// Node 2 loses its counters with every kill; count the other two.
	survivors := []int{0, 1}
	before, err := dep.readCounters(survivors)
	if err != nil {
		return false, err
	}

	endWin := tr.begin("window")
	w.tr = tr.workerBuf()
	win := window{start: time.Now(), traced: cfg.trace}
	ok := true
	var spawnMS, recoverMS, caughtMS []float64
	for cycle := 0; time.Since(win.start).Seconds() < cfg.seconds && (cfg.maxCycles == 0 || cycle < cfg.maxCycles); cycle++ {
		touched := map[int]bool{}
		phase := func() {
			w.prevEnd = time.Time{}
			p0 := time.Now()
			for i := 0; i < recoverPhaseOps; i++ {
				op := w.gen.next()
				touched[op.a] = true
				if op.kind == weakTxn {
					touched[op.b] = true
				}
				w.do(ctx, win, client, op)
			}
			t.windowS += time.Since(p0).Seconds()
		}
		phase()
		if err := dep.d.Kill(2); err != nil {
			return false, err
		}
		phase()

		endRestart := tr.begin("launch.restart")
		r0 := time.Now()
		if err := dep.d.Restart(2); err != nil {
			return false, err
		}
		accepted := make(chan float64, 1)
		go func() { accepted <- untilAccepting(ctx, dep.d.Addrs[2], r0) }()
		// Read retries inside the controller until the node answers.
		if _, err := dep.c.Read(2, keyNames[0]); err != nil {
			return false, fmt.Errorf("cycle %d: node 2 did not answer after restart: %w\n%s", cycle, err, dep.d.Logs())
		}
		recoverMS = append(recoverMS, msSince(r0))
		if missing := awaitCaughtUp(ctx, dep, touched); missing != "" {
			fmt.Fprintf(cfg.log, "VERIFY: cycle %d: restarted node 2 never showed an acknowledged operation: %s\n", cycle, missing)
			ok = false
		}
		caughtMS = append(caughtMS, msSince(r0))
		spawnMS = append(spawnMS, <-accepted)
		endRestart()
	}
	endWin()

	after, err := dep.readCounters(survivors)
	if err != nil {
		return false, err
	}
	if err := settle(dep, tr, t); err != nil {
		return false, err
	}
	t.harvest(dep, before, after)
	t.setupS = setups
	ok = verify(dep, tr, cfg.log) && ok
	clientCPU := cpuNow().self
	m["launch.spawn_ms"] = median(spawnMS)
	m["launch.recover_p50_ms"] = median(recoverMS)
	m["launch.caught_p50_ms"] = median(caughtMS)
	histOK, err := checkHistory(dep, tr, cfg, m)
	if err != nil {
		return false, err
	}
	return ok && histOK, dep.finish(cfg, tr, t, m, clientCPU)
}

// untilAccepting dials addr until a TCP connect is accepted and returns
// the milliseconds since t0: process spawn to listening socket.
func untilAccepting(ctx context.Context, addr string, t0 time.Time) float64 {
	for ctx.Err() == nil {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			ms := msSince(t0)
			conn.Close()
			return ms
		}
		time.Sleep(time.Millisecond)
	}
	return 0
}

// awaitCaughtUp polls node 2 until every counter touched in the cycle
// shows the acknowledged total (counters only grow and the client is
// idle, so a counter that matched stays matched). It returns a
// description of the first counter still behind after 30 s, or "".
func awaitCaughtUp(ctx context.Context, dep *deployment, touched map[int]bool) string {
	deadline := time.Now().Add(30 * time.Second)
	for k := range touched {
		lo, hi := dep.expected(k)
		for {
			v, err := dep.c.Read(2, keyNames[k])
			got, isInt := counterValue(v)
			if err == nil && isInt && got >= lo && got <= hi {
				break
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				return fmt.Sprintf("%s = %v (err %v), acknowledged %d", keyNames[k], v, err, lo)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return ""
}

// checkHistory runs the paper's checkers over the recorded history — this
// workload is small enough for them — after the usual probe reads that the
// "eventually" predicates need.
func checkHistory(dep *deployment, tr *tracer, cfg runConfig, m map[string]float64) (bool, error) {
	dep.c.MarkStable()
	for r := 0; r < dep.c.Replicas(); r++ {
		s, err := dep.c.Session(r)
		if err != nil {
			return false, err
		}
		if _, err := s.Invoke(bayou.CtrGet(keyNames[0]), bayou.Weak); err != nil {
			return false, fmt.Errorf("probe read at replica %d: %w", r, err)
		}
	}
	if err := dep.c.Settle(); err != nil {
		return false, fmt.Errorf("settle after probe reads: %w", err)
	}
	ok := true
	check := func(name string, fn func(bayou.Level) (bayou.Report, error), level bayou.Level) error {
		defer tr.begin("probe." + name)()
		t0 := time.Now()
		rep, err := fn(level)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = msSince(t0)
		if !rep.OK() {
			ok = false
			fmt.Fprintf(cfg.log, "VERIFY: %s failed:\n%v\n", name, rep)
		}
		return nil
	}
	if err := check("check.fec_ms", dep.c.CheckFEC, bayou.Weak); err != nil {
		return false, err
	}
	if err := check("check.seq_ms", dep.c.CheckSeq, bayou.Strong); err != nil {
		return false, err
	}
	return ok, nil
}
