package main

// This file is the benchmark's vocabulary: the workload names, the metric
// names with unit and direction, and the sizing constants every workload
// shares. BENCHMARK.json at the repo root states the same lists for the
// driver; bench_test.go fails when the two drift apart.

// metricDef names one metric. Bound is the relative worsening that counts
// as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// Workload names are final; later issues cite them.
const (
	wlSockDurable  = "sock-durable"
	wlSockVolatile = "sock-volatile"
	wlInproc       = "inproc-sessions"
	wlSockRecover  = "sock-recover"
)

type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{wlSockDurable, "3 durable bayou-node processes over TCP: the deployed configuration, store fsyncs dominate"},
	{wlSockVolatile, "same cluster without data dirs: store idle, so wire, controller RPC and node loop dominate"},
	{wlInproc, "in-process replicas, 16 sessions, half guaranteed: core, facade and record only, no wire, no store"},
	{wlSockRecover, "durable cluster, SIGKILL and restart of node 2 every 120 ops: store Load and resync, the only faults"},
}

// endToEnd lists what a client of the deployment sees. Every one is
// reported on every workload and is never zero (fail_ratio and
// recover_p50_ms, which the issue proposed here, are zero or undefined on
// some workloads and live in perLayer instead).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.10},
	{"weak_p50_ms", "ms", "lower", 0.15},
	{"weak_p99_ms", "ms", "lower", 0.25},
	{"strong_p50_ms", "ms", "lower", 0.15},
	{"strong_p95_ms", "ms", "lower", 0.25},
	{"stable_p50_ms", "ms", "lower", 0.20},
	{"cpu_ms_per_op", "ms", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics, grouped by module. A value of 0
// on a workload that bypasses the layer means "not applicable here" (see
// README.md for which).
var perLayer = []metricDef{
	{"fail_ratio", "ratio", "lower", 0},

	{"facade.invoke_plain_us", "us", "lower", 0},
	{"facade.invoke_guarantee_us", "us", "lower", 0},
	{"facade.txn_p50_ms", "ms", "lower", 0},
	{"facade.strong_read_p50_ms", "ms", "lower", 0},
	{"facade.settle_ms", "ms", "lower", 0},
	{"facade.heap_bytes_per_op", "bytes", "lower", 0},
	{"facade.transitions_per_weak", "count", "lower", 0},
	{"facade.reordered_ratio", "ratio", "lower", 0},

	{"livenet.rpc_rtt_us", "us", "lower", 0},
	{"livenet.nodes_cpu_us_per_op", "us", "lower", 0},
	{"livenet.ctrl_cpu_us_per_op", "us", "lower", 0},
	{"livenet.residual_ms", "ms", "lower", 0},

	{"wire.invoke_frame_us", "us", "lower", 0},
	{"wire.events_frame_us", "us", "lower", 0},
	{"wire.batch64_frame_us", "us", "lower", 0},
	{"wire.invoke_frame_bytes", "bytes", "lower", 0},
	{"wire.batch64_frame_bytes", "bytes", "lower", 0},
	{"wire.allocs_per_frame", "count", "lower", 0},

	{"store.saves_per_op", "count", "lower", 0},
	{"store.bytes_per_save", "bytes", "lower", 0},
	{"store.save_ms", "ms", "lower", 0},
	{"store.load_ms", "ms", "lower", 0},
	{"store.fsync_floor_ms", "ms", "lower", 0},

	{"core.executes_per_op", "count", "lower", 0},
	{"core.rollbacks_per_op", "count", "lower", 0},
	{"core.invoke_us", "us", "lower", 0},
	{"core.rollback_reexec_us", "us", "lower", 0},
	{"core.txn_rebase_us", "us", "lower", 0},
	{"core.snapshot_us", "us", "lower", 0},
	{"core.restore_us", "us", "lower", 0},

	{"tob.ticks_per_burst", "count", "lower", 0},
	{"paxos.proposals_per_value", "count", "lower", 0},
	{"paxos.msgs_per_commit", "count", "lower", 0},

	{"launch.spawn_ms", "ms", "lower", 0},
	{"launch.recover_p50_ms", "ms", "lower", 0},
	{"launch.caught_p50_ms", "ms", "lower", 0},

	{"check.fec_ms", "ms", "lower", 0},
	{"check.seq_ms", "ms", "lower", 0},

	{"trace.overhead_ratio", "ratio", "higher", 0},
}

// Sizing constants shared by every workload (ISSUE.md "Load model" and
// "Operation mix"). They are constants, not flags: a number quoted from
// this benchmark must not depend on how it was invoked.
const (
	numKeys         = 1024 // counters k0…k1023
	zipfS           = 1.1  // hot keys conflict, so weak responses can reorder
	checkpointEvery = 256  // a run measures a steady state, not its own length
	warmupOps       = 512  // crosses the first checkpoint; untimed, inside setup_s
	clientRoutines  = 2    // = nproc of the sandbox; closed loop
	inprocSessions  = 16   // 8 per goroutine, odd ones guaranteed
	inprocRoundOps  = 50000
	recoverPhaseOps = 60 // ops before the kill and again while node 2 is down

	traceSlice = 250_000_000 // ns; a traced run alternates span recording per slice
)
