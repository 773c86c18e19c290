package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"bayou"
)

// runConfig parametrizes one run of one workload. The zero values of the
// sizing fields mean "as specified"; bench_test.go shrinks them.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	log      io.Writer

	setups     int // socket workloads, untraced: set-ups per run (setup_s is their median)
	roundOps   int // in-process: operations per fresh cluster
	maxCycles  int // sock-recover: stop after this many cycles (0: time only)
	probeScale int // divide every probe's iteration count by this
}

func (c runConfig) withDefaults() runConfig {
	if c.setups <= 0 {
		c.setups = 3
	}
	if c.roundOps <= 0 {
		c.roundOps = inprocRoundOps
	}
	if c.probeScale <= 0 {
		c.probeScale = 1
	}
	return c
}

// result is what one run produced.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Counts    map[string]int // samples behind each timing
}

// run executes one workload: set up, measure for cfg.seconds, settle,
// check the outputs, and (traced) run the per-layer probes.
func run(cfg runConfig) (*result, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var t tally
	res := &result{Workload: cfg.workload, Metrics: map[string]float64{}, Counts: map[string]int{}}
	var ok bool
	var err error
	switch cfg.workload {
	case wlSockDurable:
		ok, err = runSock(ctx, cfg, sockDurable, tr, &t, res.Metrics)
	case wlSockVolatile:
		ok, err = runSock(ctx, cfg, sockVolatile, tr, &t, res.Metrics)
	case wlInproc:
		ok, err = runInproc(ctx, cfg, tr, &t, res.Metrics)
	case wlSockRecover:
		ok, err = runRecover(ctx, cfg, tr, &t, res.Metrics)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	res.Correct, res.Attempted, res.Failed = ok && t.attempted > 0, t.attempted, t.failed
	t.metrics(res)
	if cfg.trace {
		if err := runProbes(cfg, tr, t.wire, res.Metrics); err != nil {
			return nil, err
		}
		residual(res.Metrics)
		if err := tr.write(cfg.outDir, cfg.workload, cfg.log); err != nil {
			return nil, err
		}
	}
	if t.firstError != nil {
		fmt.Fprintf(cfg.log, "first failed operation: %v\n", t.firstError)
	}
	return res, nil
}

// metrics derives every metric the tally supports.
func (t *tally) metrics(res *result) {
	m, n := res.Metrics, res.Counts
	ops := float64(t.completed())
	all := ops + float64(t.warmed)
	timing := func(name string, xs []float64, p float64) {
		m[name] = percentile(xs, p)
		n[name] = len(xs)
	}
	m["ops_per_s"] = ratio(ops, t.windowS)
	timing("weak_p50_ms", t.weakMS, 0.50)
	timing("weak_p99_ms", t.weakMS, 0.99)
	timing("strong_p50_ms", t.strongMS, 0.50)
	timing("strong_p95_ms", t.strongMS, 0.95)
	m["stable_p50_ms"] = groupedMedian(t.stableMS, 1e-3) // Call.Wall* count whole µs
	n["stable_p50_ms"] = len(t.stableMS)
	// Processor time covers spawn to stop, so it is spread over every
	// operation the deployment served, warm-up included.
	m["cpu_ms_per_op"] = ratio(float64((t.cpu.self+t.cpu.children).Microseconds())/1e3, all)
	timing("setup_s", t.setupS, 0.50)
	m["fail_ratio"] = ratio(float64(t.failed), float64(t.attempted))

	timing("facade.invoke_plain_us", t.plainUS, 0.50)
	timing("facade.invoke_guarantee_us", t.guarUS, 0.50)
	timing("facade.txn_p50_ms", t.txnMS, 0.50)
	timing("facade.strong_read_p50_ms", t.readMS, 0.50)
	timing("facade.settle_ms", t.settleMS, 0.50)
	m["facade.heap_bytes_per_op"] = ratio(float64(t.heapBytes), ops)
	m["facade.transitions_per_weak"] = ratio(float64(t.transitions), float64(t.weakCalls))
	m["facade.reordered_ratio"] = ratio(float64(t.reordered), float64(t.weakCalls))
	m["livenet.nodes_cpu_us_per_op"] = ratio(float64(t.cpu.children.Microseconds()), all)
	m["livenet.ctrl_cpu_us_per_op"] = ratio(float64(t.cpu.self.Microseconds()), all)
	m["store.saves_per_op"] = ratio(float64(t.saves), ops)
	m["core.executes_per_op"] = ratio(float64(t.executes), ops)
	m["core.rollbacks_per_op"] = ratio(float64(t.rollbacks), ops)
	// Throughput with span recording on over throughput with it off, from
	// the closed-loop cycle times of the alternating slices.
	if t.cycleOps[0] > 0 && t.cycleOps[1] > 0 {
		off := float64(t.cycleOps[0]) / float64(t.cycleNS[0])
		on := float64(t.cycleOps[1]) / float64(t.cycleNS[1])
		m["trace.overhead_ratio"] = on / off
	}
}

// measure runs the closed loop on every worker until the deadline (or
// until each has run quota operations) and returns the window's length.
func measure(ctx context.Context, dep *deployment, tr *tracer, traced bool, seconds float64, quota int) float64 {
	defer tr.begin("window")()
	for _, w := range dep.workers {
		w.tr = tr.workerBuf()
	}
	win := window{start: time.Now(), traced: traced}
	deadline := win.start.Add(time.Duration(seconds * float64(time.Second)))
	_ = dep.parallel(func(w *worker) error {
		w.loop(ctx, win, deadline, quota)
		return nil
	})
	return time.Since(win.start).Seconds()
}

// settle drives the deployment to quiescence and records how long it took:
// the convergence lag the closed loop left behind.
func settle(dep *deployment, tr *tracer, t *tally) error {
	end := tr.begin("facade.settle")
	t0 := time.Now()
	err := dep.c.Settle()
	t.settleMS = append(t.settleMS, msSince(t0))
	end()
	if err != nil {
		return fmt.Errorf("settle: %w", err)
	}
	return nil
}

// runSock is sock-durable and sock-volatile: three bayou-node processes,
// two closed-loop sessions, the mix for cfg.seconds.
func runSock(ctx context.Context, cfg runConfig, sub substrate, tr *tracer, t *tally, m map[string]float64) (bool, error) {
	dep, setups, err := startRepeated(ctx, cfg, sub, tr)
	if err != nil {
		return false, err
	}
	defer dep.stop()
	before, err := dep.readCounters(allReplicas)
	if err != nil {
		return false, err
	}
	t.windowS = measure(ctx, dep, tr, cfg.trace, cfg.seconds, 0)
	after, err := dep.readCounters(allReplicas)
	if err != nil {
		return false, err
	}
	if err := settle(dep, tr, t); err != nil {
		return false, err
	}
	t.harvest(dep, before, after)
	t.setupS = setups
	ok := verify(dep, tr, cfg.log)
	return ok, dep.finish(cfg, tr, t, m, cpuNow().self)
}

// finish ends a socket deployment's run: the traced run's probes of the
// live cluster, then stop, then the processor-time account. The nodes'
// time is only known once they are reaped; the generator's (clientCPU) was
// read when the client work — window, settle, verify — ended, before
// probes and checkers.
func (dep *deployment) finish(cfg runConfig, tr *tracer, t *tally, m map[string]float64, clientCPU time.Duration) error {
	if cfg.trace {
		m["livenet.rpc_rtt_us"] = rpcRTT(dep, tr, 2000/cfg.probeScale)
		if err := probeStore(dep, tr, cfg.probeScale, m); err != nil {
			return err
		}
	}
	dep.stop()
	t.cpu = cpuTimes{self: clientCPU, children: cpuNow().children}.sub(dep.cpu0)
	return nil
}

// startRepeated sets a socket deployment up and returns it with the set-up
// times seen. An untraced run sets up cfg.setups times — the earlier
// deployments are stopped again — because one spawn-connect-warm-up is too
// noisy a sample for setup_s; the throw-away deployments draw from their
// own generator streams so the measured one sees the same operations
// however often set-up was repeated.
func startRepeated(ctx context.Context, cfg runConfig, sub substrate, tr *tracer) (*deployment, []float64, error) {
	n := cfg.setups
	if cfg.trace {
		n = 1
	}
	var setups []float64
	for i := 1; ; i++ {
		stream := 0
		if i < n {
			stream = 100 * i
		}
		dep, err := start(ctx, sub, cfg.seed, stream, tr)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, dep.setupS)
		if i == n {
			return dep, setups, nil
		}
		dep.stop()
		runtime.GC()
	}
}

// runInproc is inproc-sessions: fresh in-process clusters, each serving up
// to cfg.roundOps operations, until cfg.seconds of measured time are spent.
// The recorder retains a few KB per operation, so one long-lived cluster
// would measure the garbage collector; rounds keep the heap bounded.
func runInproc(ctx context.Context, cfg runConfig, tr *tracer, t *tally, m map[string]float64) (bool, error) {
	cpu0 := cpuNow()
	ok := true
	for round := 0; t.windowS < cfg.seconds; round++ {
		dep, err := start(ctx, inproc, cfg.seed, 2*round, tr)
		if err != nil {
			return false, err
		}
		before, err := dep.readCounters(allReplicas)
		if err != nil {
			dep.stop()
			return false, err
		}
		t.windowS += measure(ctx, dep, tr, cfg.trace, cfg.seconds-t.windowS, cfg.roundOps/len(dep.workers))
		after, err := dep.readCounters(allReplicas)
		if err == nil {
			err = settle(dep, tr, t)
		}
		if err != nil {
			dep.stop()
			return false, err
		}
		t.harvest(dep, before, after)
		ok = verify(dep, tr, cfg.log) && ok
		if cfg.trace && round == 0 {
			m["livenet.rpc_rtt_us"] = rpcRTT(dep, tr, 2000/cfg.probeScale)
		}
		dep.stop()
		runtime.GC()
	}
	t.cpu = cpuNow().sub(cpu0)
	return ok, nil
}

// rpcRTT is the median of n Cluster.Read spans on the idle cluster:
// controller, wire, node loop and back — no engine work, no persist.
func rpcRTT(dep *deployment, tr *tracer, n int) float64 {
	defer tr.begin("probe.livenet.rpc_rtt")()
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := dep.c.Read(1, keyNames[0]); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

// verify is the correctness gate: with the deployment settled, every
// counter must read, on every replica, exactly the increments the system
// acknowledged (weak and strong Incs, two per transaction). A failed
// operation may or may not have landed, so it widens the accepted range
// instead of hiding a loss. Violations are printed; no metric can come
// from dropped work.
func verify(dep *deployment, tr *tracer, log io.Writer) bool {
	defer tr.begin("verify")()
	var lo, hi [numKeys]int64
	var want int64
	for k := range lo {
		lo[k], hi[k] = dep.expected(k)
		want += lo[k]
	}
	n := dep.c.Replicas()
	diffs := make([][]string, n)
	sums := make([]int64, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range lo {
				v, err := dep.c.Read(r, keyNames[k])
				got, isInt := counterValue(v)
				switch {
				case err != nil:
					diffs[r] = append(diffs[r], fmt.Sprintf("replica %d %s: %v", r, keyNames[k], err))
				case !isInt || got < lo[k] || got > hi[k]:
					diffs[r] = append(diffs[r], fmt.Sprintf("replica %d %s = %v, acknowledged %d (up to %d with failed operations)", r, keyNames[k], v, lo[k], hi[k]))
				}
				sums[r] += got
			}
		}()
	}
	wg.Wait()
	ok := true
	for r := range diffs {
		for i, d := range diffs[r] {
			ok = false
			if i < 20 {
				fmt.Fprintln(log, "VERIFY:", d)
			}
		}
		if len(diffs[r]) > 0 {
			fmt.Fprintf(log, "VERIFY: replica %d: %d counters wrong; counter sum %d, acknowledged increments %d\n", r, len(diffs[r]), sums[r], want)
		}
	}
	return ok
}

// counterValue reads a counter register's value (nil when never written).
func counterValue(v bayou.Value) (int64, bool) {
	switch x := v.(type) {
	case nil:
		return 0, true
	case int64:
		return x, true
	case int:
		return int64(x), true
	}
	return 0, false
}
