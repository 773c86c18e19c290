package bayou_test

// The benchmark harness regenerates every evaluation artifact of the paper:
// BenchmarkExperiments runs each experiment of DESIGN.md §2 (the figures,
// the §2.3 progress phenomena, the three theorems, and the prose
// comparisons) as one sub-benchmark, next to micro-benchmarks of the
// protocol's hot paths. Run with
//
//	go test -bench=. -benchmem
//
// Each experiment validates the paper-vs-measured shape on every iteration,
// so `-bench` doubles as a reproduction check; cmd/bayou-bench prints the
// same tables in a human-readable layout. TestHotPathAllocs pins the hot
// paths' allocation counts on every test run. The end-to-end benchmark of
// the running system is the bench/ module (BENCHMARK.json).

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"bayou"
	"bayou/internal/check"
	"bayou/internal/core"
	"bayou/internal/experiments"
	"bayou/internal/scenario"
	"bayou/internal/spec"
	"bayou/internal/stateobj"
	"bayou/internal/workload"
)

// BenchmarkExperiments regenerates experiments E1…E13, one sub-benchmark
// per experiments.Registry entry at the registry's arities, and fails if a
// measured shape deviates from the paper.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatalf("experiment shape deviates from the paper:\n%s", res)
				}
			}
		})
	}
}

// --- protocol micro-benchmarks ---------------------------------------------

// benchLoop times b.N calls of fn, reporting allocations. Set-up done before
// the call is excluded from the measurement.
func benchLoop(b *testing.B, fn func() error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeakInvokeModified measures the Algorithm 2 weak path: immediate
// execute + rollback + broadcast effects (the bounded-wait-free fast path).
// One iteration is a fixed 100-invocation workload on a fresh replica.
func BenchmarkWeakInvokeModified(b *testing.B) {
	benchLoop(b, func() error { return workload.MicroWeakInvoke(100) })
}

// BenchmarkRollbackReexecute measures the reordering hot path: remote
// requests with older timestamps force rollbacks and re-executions. One
// iteration is a fixed 100-delivery workload on a fresh replica.
func BenchmarkRollbackReexecute(b *testing.B) {
	benchLoop(b, func() error { return workload.MicroRollbackReexecute(100) })
}

// BenchmarkTxnWeakRebase measures the transactional rebase hot path: a weak
// two-op transfer txn rolled back across its undo span and re-executed
// atomically by each of 100 older remote deliveries. Its delta over
// BenchmarkRollbackReexecute is what the span machinery adds to the loop.
func BenchmarkTxnWeakRebase(b *testing.B) {
	benchLoop(b, func() error { return workload.MicroTxnWeakRebase(100) })
}

// BenchmarkTxnStrongCommit measures the strong transactional path: one
// session committing 64 strong transfer txns through consensus, each unit
// anchored in a single slot and settled before the next.
func BenchmarkTxnStrongCommit(b *testing.B) {
	benchLoop(b, func() error { return workload.MicroTxnStrongCommit(64) })
}

// sessionCounts is the sessions dimension of the multi-session benchmarks:
// the per-replica session multiplexing and the guarantee gate are measured
// as the number of concurrent sessions on one replica grows.
var sessionCounts = []int{1, 4, 8, 16}

// BenchmarkMultiSessionInvoke measures the session-fan-in path: 1, 4, 8 and
// 16 concurrent sessions on one replica of a simulated cluster, 25 weak
// increments each.
func BenchmarkMultiSessionInvoke(b *testing.B) {
	for _, sessions := range sessionCounts {
		b.Run(fmt.Sprintf("%dx25ops", sessions), func(b *testing.B) {
			benchLoop(b, func() error { return workload.MicroMultiSession(sessions, 25) })
		})
	}
}

// BenchmarkGuaranteeCoverage measures the session-guarantee gate on the
// weak path: the MicroMultiSession deployment and invocation pattern with
// every session carrying ReadYourWrites|MonotonicReads. The delta against
// the same sub-benchmark of BenchmarkMultiSessionInvoke is the price of
// coverage checking and vector maintenance (plain sessions pay nothing: the
// gate is a single combined lock acquisition they already paid as the busy
// check).
func BenchmarkGuaranteeCoverage(b *testing.B) {
	for _, sessions := range sessionCounts {
		b.Run(fmt.Sprintf("%dx25ops", sessions), func(b *testing.B) {
			benchLoop(b, func() error { return workload.MicroGuaranteeSession(sessions, 25) })
		})
	}
}

// --- strong-path micro-benchmarks ------------------------------------------

// BenchmarkStrongBurst measures the multi-decree strong path end to end:
// one iteration is a fixed 64-write/64-read burst from 32 concurrent
// sessions against a stable leader — slot batching and pipelining collapse
// the writes into few decided slots, the leader lease serves the reads
// locally.
func BenchmarkStrongBurst(b *testing.B) {
	benchLoop(b, func() error { return workload.MicroStrongBurst(64) })
}

// BenchmarkStrongCommitLatency measures one strong update committed
// through consensus to quiescence on a prebuilt leased deployment — the
// per-operation strong-write latency a sequential session observes.
func BenchmarkStrongCommitLatency(b *testing.B) {
	f, err := workload.NewLeaseFixture(10)
	if err != nil {
		b.Fatal(err)
	}
	benchLoop(b, f.Write)
}

// BenchmarkLeaseRead measures one strong read served locally under the
// leader lease: zero proposal rounds, zero forwarding — the fixture
// errors out if a read ever falls back to consensus, so the measured
// region is guaranteed to be the local path.
func BenchmarkLeaseRead(b *testing.B) {
	f, err := workload.NewLeaseFixture(10)
	if err != nil {
		b.Fatal(err)
	}
	benchLoop(b, f.Read)
}

// raceDetector reports whether the test binary was built with -race (set by
// race_test.go).
var raceDetector bool

// TestHotPathAllocs pins the allocation count of each hot path above. Unlike
// ns/op, allocs/op of these simulated workloads repeat from run to run, so
// each ceiling is today's count and one extra allocation per operation
// fails. Lower a ceiling when a change removes allocations.
//
// The collector is off while a row is measured: with it on, the count also
// depends on how many collections fall inside the measurement, and so on
// the heap the rest of the test binary holds (GuaranteeSession once read
// 22 250 alone and up to 22 252 in this package). Each count is the floor
// of a 20-run mean. StrongBurst's single runs spread over 5691–5696 with
// identical simulated outcomes, and its 20-run mean stays within
// 5691.00–5691.10. StrongCommitLatency grows its fixture's history on every
// call, so its count depends on the run count. Under -race StrongBurst
// allocates ≈6 000–6 100 per run, varying from run to run, so that row is
// skipped there; every other row counts the same with and without -race.
func TestHotPathAllocs(t *testing.T) {
	commit, err := workload.NewLeaseFixture(10)
	if err != nil {
		t.Fatal(err)
	}
	read, err := workload.NewLeaseFixture(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, hp := range []struct {
		name       string
		ceiling    float64
		run        func() error
		raceVaries bool
	}{
		{"WeakInvokeModified/100ops", 1274, func() error { return workload.MicroWeakInvoke(100) }, false},
		{"RollbackReexecute/100ops", 1492, func() error { return workload.MicroRollbackReexecute(100) }, false},
		{"TxnWeakRebase/100ops", 2007, func() error { return workload.MicroTxnWeakRebase(100) }, false},
		{"TxnStrongCommit/64ops", 8545, func() error { return workload.MicroTxnStrongCommit(64) }, false},
		{"StrongBurst/64w64r", 5691, func() error { return workload.MicroStrongBurst(64) }, true},
		{"MultiSession/8x25ops", 18338, func() error { return workload.MicroMultiSession(8, 25) }, false},
		{"GuaranteeSession/8x25ops", 19715, func() error { return workload.MicroGuaranteeSession(8, 25) }, false},
		{"StrongCommitLatency", 87, commit.Write, false},
		{"LeaseRead", 10, read.Read, false},
	} {
		t.Run(hp.name, func(t *testing.T) {
			if hp.raceVaries && raceDetector {
				t.Skip("allocation count varies from run to run under -race")
			}
			var runErr error
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			got := testing.AllocsPerRun(20, func() {
				if err := hp.run(); err != nil && runErr == nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			if got > hp.ceiling {
				t.Errorf("%.0f allocs/op, ceiling %.0f", got, hp.ceiling)
			}
		})
	}
}

// TestStrongBurstScaling pins the tentpole claim deterministically, with
// no wall clock involved: the same 128-write/128-read strong burst on the
// classic baseline (one value per slot, window 1, every read through
// consensus) and on the multi-decree fast path (default batching and
// pipelining, leased reads) must differ by ≥10x in simulated-time
// throughput. The counter evidence is asserted alongside: the fast path's
// reads issue zero proposals, its leader never re-runs Phase 1 after
// taking leadership, and batching actually collapsed slots.
func TestStrongBurstScaling(t *testing.T) {
	const ops = 128
	base, err := workload.MicroStrongBurstStats(ops, ops, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := workload.MicroStrongBurstStats(ops, ops, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: %d ticks, %d msgs, %d slots (%d proposals, %d prepares)",
		base.Ticks, base.NetSent, base.Leader.DecidedSlots, base.Leader.Proposals, base.Leader.Prepares)
	t.Logf("fast:     %d ticks, %d msgs, %d slots (%d proposals, %d prepares, %d batched values)",
		fast.Ticks, fast.NetSent, fast.Leader.DecidedSlots, fast.Leader.Proposals, fast.Leader.Prepares, fast.Leader.BatchedValues)
	if fast.Ticks <= 0 || base.Ticks < 10*fast.Ticks {
		t.Errorf("strong-op throughput win = %.1fx in simulated time, want ≥10x (baseline %d ticks, fast %d)",
			float64(base.Ticks)/float64(fast.Ticks), base.Ticks, fast.Ticks)
	}
	if fast.ReadProposals != 0 {
		t.Errorf("leased reads issued %d proposals, want 0", fast.ReadProposals)
	}
	if fast.Leader.Prepares > 1 {
		t.Errorf("stable leader ran Phase 1 %d times, want 1 (ballot reuse across slots)", fast.Leader.Prepares)
	}
	if fast.Leader.BatchedValues == 0 {
		t.Error("no values rode shared slots — batching never engaged")
	}
	if base.Leader.DecidedSlots < 2*ops {
		t.Errorf("baseline decided %d slots, want ≥ %d (one per write and per consensus read)",
			base.Leader.DecidedSlots, 2*ops)
	}
	if fast.Leader.DecidedSlots >= base.Leader.DecidedSlots/2 {
		t.Errorf("fast path decided %d slots vs baseline %d — batching did not collapse the burst",
			fast.Leader.DecidedSlots, base.Leader.DecidedSlots)
	}
}

// BenchmarkAdjustExecution profiles the incremental schedule-edit engine on
// its three characteristic shapes. One iteration is a fixed 500-request
// workload on a fresh replica; the per-request cost is what distinguishes
// the engine from the pseudocode-literal O(order length) rebuild:
//
//   - tail-insert: timestamp-ordered arrivals edit at the schedule end — O(1);
//   - commit-head: TOB confirms the tentative head — O(1), no re-execution;
//   - head-insert: every arrival predates the whole tentative suffix — the
//     adversarial O(suffix) shape where each edit shifts the entire plan.
func BenchmarkAdjustExecution(b *testing.B) {
	const ops = 500
	remote := func(k int, ts int64) core.Req {
		return core.Req{Timestamp: ts, Dot: core.Dot{Replica: 1, EventNo: int64(k + 1)}, Op: spec.Inc("c", 1)}
	}
	b.Run("tail-insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := core.NewReplica(0, core.Original, func() int64 { return 0 })
			for k := 0; k < ops; k++ {
				if _, err := r.RBDeliver(remote(k, int64(k+1))); err != nil {
					b.Fatal(err)
				}
				if _, err := r.Drain(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("commit-head", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Setup (building and executing the tentative backlog) is
			// excluded from the measurement so the timed region is the
			// commit fast path alone.
			b.StopTimer()
			r := core.NewReplica(0, core.Original, func() int64 { return 0 })
			reqs := make([]core.Req, ops)
			for k := 0; k < ops; k++ {
				reqs[k] = remote(k, int64(k+1))
				if _, err := r.RBDeliver(reqs[k]); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := r.Drain(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, req := range reqs {
				if _, err := r.TOBDeliver(req); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := r.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("head-insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := core.NewReplica(0, core.Original, func() int64 { return 0 })
			for k := 0; k < ops; k++ {
				if _, err := r.RBDeliver(remote(k, int64(ops-k))); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := r.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotRestore measures Replica.Snapshot alone, the durable
// image both drivers take at crash time, over growing histories with
// checkpointing off and on. Snapshot aliases the committed suffix and shares
// the checkpoint record, so neither series copies anything proportional to
// history: both must stay flat in history length, at 0 allocs/op (the
// fixture has no pending client call to copy). Restoring from the snapshot
// is BenchmarkCheckpointRecovery.
func BenchmarkSnapshotRestore(b *testing.B) {
	for _, history := range []int{1_000, 10_000, 50_000} {
		for _, every := range []int{0, 256} {
			name := fmt.Sprintf("history=%d/ckpt=off", history)
			if every > 0 {
				name = fmt.Sprintf("history=%d/ckpt=%d", history, every)
			}
			b.Run(name, func(b *testing.B) {
				f, err := workload.NewSnapshotFixture(history, every)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					snap := f.Snapshot()
					if snap.CommittedLen() != history {
						b.Fatalf("snapshot covers %d of %d ops", snap.CommittedLen(), history)
					}
				}
			})
		}
	}
}

// BenchmarkCheckpointRecovery measures crash recovery (RestoreReplica) over
// growing histories. Without checkpointing, recovery re-executes the full
// committed log — O(history); with it, recovery loads the checkpoint image
// and executes only the suffix — O(window), flat in history length (the
// ISSUE's ≥5× win at the 50k point is asserted by
// TestCheckpointRecoveryScaling, which compares the same fixtures).
func BenchmarkCheckpointRecovery(b *testing.B) {
	for _, history := range []int{1_000, 10_000, 50_000} {
		for _, every := range []int{0, 256} {
			name := fmt.Sprintf("history=%d/ckpt=off", history)
			if every > 0 {
				name = fmt.Sprintf("history=%d/ckpt=%d", history, every)
			}
			b.Run(name, func(b *testing.B) {
				f, err := workload.NewSnapshotFixture(history, every)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := f.Restore(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestCheckpointRecoveryScaling pins the tentpole claim without needing a
// benchmark run: at the 50k-op point, snapshot+recovery with checkpointing
// must beat the no-checkpoint path by at least 5× wall time, and the
// checkpointing replica's resident committed log must be bounded by the
// checkpoint window rather than the history.
func TestCheckpointRecoveryScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-op fixture is slow under -short")
	}
	const history, every = 50_000, 256
	plain, err := workload.NewSnapshotFixture(history, 0)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := workload.NewSnapshotFixture(history, every)
	if err != nil {
		t.Fatal(err)
	}
	if got := ckpt.Replica.Footprint().CommittedSuffix; got > every {
		t.Errorf("resident committed log = %d entries, want ≤ checkpoint window %d", got, every)
	}
	measure := func(f *workload.SnapshotFixture) time.Duration {
		start := time.Now()
		f.Snap = f.Snapshot()
		if err := f.Restore(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Warm up once each, then take the best of three to damp scheduler noise.
	measure(plain)
	measure(ckpt)
	best := func(f *workload.SnapshotFixture) time.Duration {
		b := measure(f)
		for i := 0; i < 2; i++ {
			if d := measure(f); d < b {
				b = d
			}
		}
		return b
	}
	slow, fast := best(plain), best(ckpt)
	if slow < 5*fast {
		t.Errorf("recovery at 50k ops: no-checkpoint %v vs checkpointed %v — want ≥5× win", slow, fast)
	}
}

// BenchmarkStateObjectExecute measures Algorithm 3's undo-logged
// execute/rollback pair.
func BenchmarkStateObjectExecute(b *testing.B) {
	s := stateobj.New()
	op := spec.Inc("c", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute("req", op); err != nil {
			b.Fatal(err)
		}
		if err := s.Rollback("req"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndStableRun measures a full stable run (invocations through
// Paxos TOB to quiescence) per iteration.
func BenchmarkEndToEndStableRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := bayou.New(bayou.WithReplicas(3), bayou.WithSeed(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.ElectLeader(0); err != nil {
			b.Fatal(err)
		}
		sessions := make([]*bayou.Session, 3)
		for r := range sessions {
			if sessions[r], err = c.Session(r); err != nil {
				b.Fatal(err)
			}
		}
		for k := 0; k < 10; k++ {
			if _, err := sessions[k%3].Invoke(bayou.Append("x"), bayou.Weak); err != nil {
				b.Fatal(err)
			}
			c.Run(5)
		}
		if _, err := sessions[0].Invoke(bayou.Duplicate(), bayou.Strong); err != nil {
			b.Fatal(err)
		}
		if err := c.Settle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWitnessChecker measures FEC+Seq verification over a recorded
// stable-run history.
func BenchmarkWitnessChecker(b *testing.B) {
	out, err := scenario.StableRun(1, 3, 8, core.NoCircularCausality)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := check.NewWitness(out.History)
		if !w.FEC(core.Weak).OK() || !w.Seq(core.Strong).OK() {
			b.Fatal("checker verdict changed")
		}
	}
}

// BenchmarkSearchImpossibility measures the exhaustive (vis, ar) search on
// the Theorem 1 history.
func BenchmarkSearchImpossibility(b *testing.B) {
	out, err := scenario.Theorem1()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := check.Search(out.History, check.BECWeakSeqStrong())
		if err != nil {
			b.Fatal(err)
		}
		if res.Satisfiable {
			b.Fatal("impossibility refuted?!")
		}
	}
}
