package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"bayou"
	"bayou/internal/core"
	"bayou/internal/launch"
	"bayou/internal/store"
)

// atExit tears down whatever is still running on any exit path.
var atExit cleanups

// substrate selects what a deployment runs on.
type substrate int

const (
	sockDurable substrate = iota
	sockVolatile
	inproc
)

// deployment is one running cluster with its client goroutines' state.
type deployment struct {
	c       *bayou.Cluster
	d       *launch.Deployment // nil when in-process
	workers []*worker
	setupS  float64  // first spawn/construct to end of warm-up
	cpu0    cpuTimes // processor time before the spawn
	warmed  int      // warm-up operations completed
	stop    func()   // idempotent: close the façade, stop and reap the nodes, remove their dirs
}

// start spawns (or constructs) a cluster, opens the sessions, and runs the
// untimed warm-up. Worker i draws from generator stream streamBase+i.
func start(ctx context.Context, sub substrate, seed int64, streamBase int, tr *tracer) (*deployment, error) {
	dep := &deployment{cpu0: cpuNow()}
	t0 := time.Now()
	endLaunch := tr.begin("launch.start")
	var opts []bayou.Option
	if sub == inproc {
		opts = []bayou.Option{bayou.WithReplicas(3), bayou.WithCheckpointEvery(checkpointEvery)}
	} else {
		d, err := launch.StartWith(launch.Options{
			N: 3, Volatile: sub == sockVolatile, Seed: seed,
			ExtraArgs: []string{"-checkpoint-every", strconv.Itoa(checkpointEvery)},
		})
		if err != nil {
			return nil, fmt.Errorf("launching bayou-node processes: %w", err)
		}
		dep.d = d
		opts = []bayou.Option{bayou.WithPeers(d.Addrs...)}
	}
	dep.stop = atExit.add(func() {
		if dep.c != nil {
			dep.c.Close()
		}
		if dep.d != nil {
			dep.d.Stop()
			dep.d.Cleanup()
		}
	})
	c, err := bayou.NewLive(opts...)
	if err != nil {
		logs := ""
		if dep.d != nil {
			logs = "\n" + dep.d.Logs()
		}
		dep.stop()
		return nil, fmt.Errorf("connecting the façade: %w%s", err, logs)
	}
	dep.c = c
	if err := dep.openSessions(sub, seed, streamBase); err != nil {
		dep.stop()
		return nil, err
	}
	endLaunch()

	endWarm := tr.begin("warmup")
	err = dep.parallel(func(w *worker) error { return w.warm(ctx, warmupOps/len(dep.workers)) })
	endWarm()
	if err != nil {
		dep.stop()
		return nil, err
	}
	dep.warmed = warmupOps / len(dep.workers) * len(dep.workers)
	dep.setupS = time.Since(t0).Seconds()
	return dep, nil
}

// openSessions builds the client goroutines' state. Socket deployments get
// one plain session per goroutine, bound to replicas 1 and 2 (replica 0 is
// the sequencer); the in-process deployment gets 16 sessions spread over
// the replicas, 8 per goroutine, the odd-numbered ones guaranteed.
func (dep *deployment) openSessions(sub substrate, seed int64, streamBase int) error {
	for i := 0; i < clientRoutines; i++ {
		dep.workers = append(dep.workers, &worker{gen: newMixGen(seed, streamBase+i), tr: &traceBuf{}})
	}
	if sub != inproc {
		for i, w := range dep.workers {
			s, err := dep.c.Session(1 + i%2)
			if err != nil {
				return err
			}
			w.sessions = []boundSession{{s: s}}
		}
		return nil
	}
	for i := 0; i < inprocSessions; i++ {
		var sopts []bayou.SessionOption
		if i%2 == 1 {
			sopts = append(sopts, bayou.WithGuarantees(bayou.ReadYourWrites|bayou.MonotonicReads))
		}
		s, err := dep.c.Session(i%3, sopts...)
		if err != nil {
			return err
		}
		w := dep.workers[i/(inprocSessions/clientRoutines)]
		w.sessions = append(w.sessions, boundSession{s: s, guaranteed: i%2 == 1})
	}
	return nil
}

// parallel runs fn once per worker, each on its own goroutine, and waits.
func (dep *deployment) parallel(fn func(*worker) error) error {
	errs := make([]error, len(dep.workers))
	var wg sync.WaitGroup
	for i, w := range dep.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// counters is what the public surfaces expose about work done so far.
type counters struct {
	executes, rollbacks int64
	gens                int64 // newest store generation, summed over data dirs
	heap                uint64
}

// readCounters samples Driver.Stats over the given replicas, the newest
// generation number in every data dir, and the generator's live heap.
func (dep *deployment) readCounters(replicas []int) (counters, error) {
	var k counters
	stats, err := dep.c.Driver().Stats()
	if err != nil {
		return k, fmt.Errorf("driver stats: %w", err)
	}
	for _, r := range replicas {
		k.executes += stats[core.ReplicaID(r)].Executes
		k.rollbacks += stats[core.ReplicaID(r)].Rollbacks
	}
	if dep.d != nil {
		for i := range dep.d.Addrs {
			dir := dep.d.DataDir(i)
			if dir == "" {
				continue
			}
			st, err := store.Open(dir, 0)
			if err != nil {
				return k, err
			}
			gens, err := st.Generations()
			if err != nil {
				return k, err
			}
			if len(gens) > 0 {
				k.gens += gens[len(gens)-1]
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k.heap = ms.HeapAlloc
	return k, nil
}

var allReplicas = []int{0, 1, 2}

// expected is the range counter k must read once the deployment is
// settled: the increments acknowledged, plus at most those of failed
// operations, which may or may not have landed.
func (dep *deployment) expected(k int) (lo, hi int64) {
	for _, w := range dep.workers {
		lo += w.led.acked[k]
		hi += w.led.acked[k] + w.led.uncertain[k]
	}
	return lo, hi
}

// tally accumulates measurements over the deployments of one run (one for
// the socket workloads, one per round in process).
type tally struct {
	weakMS, txnMS, strongMS, readMS []float64
	plainUS, guarUS, stableMS       []float64
	settleMS, setupS                []float64
	weakCalls, transitions          int64
	reordered                       int64
	attempted, failed, warmed       int
	cycleNS, cycleOps               [2]int64
	windowS                         float64
	heapBytes                       int64
	executes, rollbacks, saves      int64
	cpu                             cpuTimes
	firstError                      error
	wire                            wireInputs // probe inputs, from the first deployment
}

// completed is the number of measured operations that succeeded.
func (t *tally) completed() int { return t.attempted - t.failed }

// harvest folds a settled deployment's samples into the tally.
func (t *tally) harvest(dep *deployment, before, after counters) {
	for _, w := range dep.workers {
		sm := &w.sm
		t.weakMS = append(t.weakMS, sm.weakMS...)
		t.txnMS = append(t.txnMS, sm.txnMS...)
		t.strongMS = append(t.strongMS, sm.strongMS...)
		t.readMS = append(t.readMS, sm.readMS...)
		t.plainUS = append(t.plainUS, sm.plainUS...)
		t.guarUS = append(t.guarUS, sm.guarUS...)
		t.attempted += sm.attempted
		t.failed += sm.failed
		for m := range sm.cycleNS {
			t.cycleNS[m] += sm.cycleNS[m]
			t.cycleOps[m] += sm.cycleOps[m]
		}
		if t.firstError == nil {
			t.firstError = sm.firstError
		}
		t.wire.capture(sm.weakCalls)
		for _, call := range sm.weakCalls {
			t.weakCalls++
			fl := call.Fluctuations()
			t.transitions += int64(len(fl))
			for _, u := range fl {
				if u.Status == bayou.StatusReordered {
					t.reordered++
					break
				}
			}
			// The fluctuation window: invoke to the stable notice (or to
			// the response itself when that was already committed).
			stable := call.WallStable()
			if stable == 0 && call.Response().Committed {
				stable = call.WallReturn()
			}
			if stable > 0 {
				t.stableMS = append(t.stableMS, float64(stable-call.WallInvoke())/1e3)
			}
		}
	}
	t.warmed += dep.warmed
	t.setupS = append(t.setupS, dep.setupS)
	t.heapBytes += int64(after.heap) - int64(before.heap)
	t.executes += after.executes - before.executes
	t.rollbacks += after.rollbacks - before.rollbacks
	t.saves += after.gens - before.gens
}
