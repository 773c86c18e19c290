package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"bayou"
	"bayou/internal/core"
	"bayou/internal/livenet"
	"bayou/internal/store"
	"bayou/internal/wire"
	"bayou/internal/workload"
)

// Probes time one layer's public functions in isolation, on inputs taken
// from the workload that just ran. They run in the traced run only, after
// the cluster has been measured, and never while it is being measured.

// wireInputs are real payloads from the run: an operation, responses and
// requests as the nodes produced them.
type wireInputs struct {
	op    bayou.Op
	resps []core.Response
	reqs  []core.Req
}

// capture fills in from a deployment's weak calls (the first run to
// have any wins).
func (in *wireInputs) capture(calls []*bayou.Call) {
	if in.op != nil || len(calls) == 0 {
		return
	}
	in.op = calls[0].Op()
	for i := 0; i < 64; i++ {
		resp := calls[i%len(calls)].Response()
		in.reqs = append(in.reqs, resp.Req)
		if i < 2 {
			in.resps = append(in.resps, resp)
		}
	}
}

// countingConn counts the bytes written to a connection.
type countingConn struct {
	net.Conn
	written atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair() (client, server net.Conn, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		client.Close()
		return nil, nil, a.err
	}
	return client, a.c, nil
}

// probeWire sends and receives n frames of each shape over a loopback TCP
// pair wrapped with wire.Wrap: the codec, the checksum, two system calls.
func probeWire(tr *tracer, in wireInputs, n int, m map[string]float64) error {
	if in.op == nil {
		return fmt.Errorf("wire probe: the workload produced no weak call to take inputs from")
	}
	rawC, rawS, err := tcpPair()
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	cc := &countingConn{Conn: rawC}
	send, recv := wire.Wrap(cc), wire.Wrap(rawS)
	defer send.Close()
	defer recv.Close()

	events := make([]wire.Event, 0, 2)
	for i, r := range in.resps {
		events = append(events, wire.Event{EKind: 3 + i, Sess: 4, Dot: r.Req.Dot, TS: r.Req.Timestamp, Resp: r})
	}
	shapes := []struct {
		name  string
		env   wire.Envelope
		bytes string
	}{
		{"wire.invoke_frame_us", wire.Envelope{Kind: wire.KindInvoke, Seq: 7, Clock: 1 << 20, AckEv: 1 << 10, Sess: 4, Op: in.op}, "wire.invoke_frame_bytes"},
		{"wire.events_frame_us", wire.Envelope{Kind: wire.KindEvents, Clock: 1 << 20, Events: events, EvSeq: 1 << 10}, ""},
		{"wire.batch64_frame_us", wire.Envelope{Kind: wire.KindRBDeliver, From: 1, Clock: 1 << 20, Reqs: in.reqs}, "wire.batch64_frame_bytes"},
	}
	for _, sh := range shapes {
		end := tr.begin("probe." + sh.name)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		b0 := cc.written.Load()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			var got wire.Envelope
			if err := send.Send(&sh.env); err != nil {
				return fmt.Errorf("%s: send: %w", sh.name, err)
			}
			if err := recv.Recv(&got); err != nil {
				return fmt.Errorf("%s: recv: %w", sh.name, err)
			}
			if got.Kind != sh.env.Kind || len(got.Reqs) != len(sh.env.Reqs) || len(got.Events) != len(sh.env.Events) {
				return fmt.Errorf("%s: frame did not round-trip", sh.name)
			}
		}
		m[sh.name] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
		runtime.ReadMemStats(&ms1)
		end()
		if sh.bytes != "" {
			m[sh.bytes] = float64(cc.written.Load()-b0) / float64(n)
		}
		if sh.name == "wire.invoke_frame_us" {
			m["wire.allocs_per_frame"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
		}
	}
	return nil
}

// probeStore measures the store layer on node 1's last durable image:
// what one generation weighs, what Save and Load of it cost in a fresh
// directory on the same filesystem, and what a bare 4 KiB write+fsync
// costs there (the floor no encoding change can go below). A volatile
// deployment has no image; only the fsync floor is measured.
func probeStore(dep *deployment, tr *tracer, scale int, m map[string]float64) error {
	tmp, err := os.MkdirTemp("", "bench-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := probeFsync(tr, tmp, 200/scale, m); err != nil {
		return err
	}
	dir := dep.d.DataDir(1)
	if dir == "" {
		return nil
	}
	// The cluster is settled and idle, so nothing is being saved; copy the
	// newest generation out of the live directory and load the copy.
	newest, ok := store.NewestPath(dir)
	if !ok {
		return fmt.Errorf("store probe: node 1 has no snapshot in %s", dir)
	}
	info, err := os.Stat(newest)
	if err != nil {
		return err
	}
	m["store.bytes_per_save"] = float64(info.Size())
	copyDir := filepath.Join(tmp, "copy")
	if err := os.Mkdir(copyDir, 0o755); err != nil {
		return err
	}
	data, err := os.ReadFile(newest)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(copyDir, filepath.Base(newest)), data, 0o644); err != nil {
		return err
	}
	src, err := store.Open(copyDir, 0)
	if err != nil {
		return err
	}
	var img livenet.NodeImage
	if _, ok, err := src.Load(&img); err != nil || !ok {
		return fmt.Errorf("store probe: loading node 1's image: ok=%v err=%v", ok, err)
	}
	st, err := store.Open(filepath.Join(tmp, "probe"), 0)
	if err != nil {
		return err
	}
	var saveMS, loadMS []float64
	for i := 0; i < 200/scale; i++ {
		end := tr.begin("probe.store.save")
		t0 := time.Now()
		_, err := st.Save(img)
		saveMS = append(saveMS, msSince(t0))
		end()
		if err != nil {
			return fmt.Errorf("store probe: save: %w", err)
		}
	}
	for i := 0; i < 50/scale; i++ {
		var back livenet.NodeImage
		end := tr.begin("probe.store.load")
		t0 := time.Now()
		_, ok, err := st.Load(&back)
		loadMS = append(loadMS, msSince(t0))
		end()
		if err != nil || !ok || back.Snap.CommittedLen() != img.Snap.CommittedLen() {
			return fmt.Errorf("store probe: load did not return the saved image (ok=%v err=%v)", ok, err)
		}
	}
	m["store.save_ms"] = median(saveMS)
	m["store.load_ms"] = median(loadMS)
	return nil
}

func probeFsync(tr *tracer, dir string, n int, m map[string]float64) error {
	f, err := os.Create(filepath.Join(dir, "fsync-floor"))
	if err != nil {
		return err
	}
	defer f.Close()
	block := make([]byte, 4096)
	var ms []float64
	for i := 0; i < n; i++ {
		end := tr.begin("probe.store.fsync")
		t0 := time.Now()
		_, err := f.WriteAt(block, 0)
		if err == nil {
			err = f.Sync()
		}
		ms = append(ms, msSince(t0))
		end()
		if err != nil {
			return fmt.Errorf("fsync probe: %w", err)
		}
	}
	m["store.fsync_floor_ms"] = median(ms)
	return nil
}

// timeMicro returns the median duration of fn over reps calls, in µs.
func timeMicro(tr *tracer, name string, reps int, fn func() error) (float64, error) {
	defer tr.begin("probe." + name)()
	us := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// probeCore times the engine micro-workloads of internal/workload — the
// same ones bench_test.go and bayou-bench -json run — and records the
// simulator stack's exact, seed-determined consensus counts.
func probeCore(tr *tracer, scale int, m map[string]float64) error {
	const batch = 100 // operations per micro call
	reps := 200 / scale
	perOp := []struct {
		name string
		fn   func(int) error
	}{
		{"core.invoke_us", workload.MicroWeakInvoke},
		{"core.rollback_reexec_us", workload.MicroRollbackReexecute},
		{"core.txn_rebase_us", workload.MicroTxnWeakRebase},
	}
	for _, p := range perOp {
		us, err := timeMicro(tr, p.name, reps, func() error { return p.fn(batch) })
		if err != nil {
			return err
		}
		m[p.name] = us / batch
	}
	fix, err := workload.NewSnapshotFixture(5000/scale, checkpointEvery)
	if err != nil {
		return fmt.Errorf("snapshot fixture: %w", err)
	}
	// One checkpointed Snapshot is tens of nanoseconds, below what a clock
	// read resolves, so it is timed in batches like the per-op micros.
	us, err := timeMicro(tr, "core.snapshot_us", reps, func() error {
		for i := 0; i < batch; i++ {
			fix.Snap = fix.Snapshot()
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["core.snapshot_us"] = us / batch
	if m["core.restore_us"], err = timeMicro(tr, "core.restore_us", reps, fix.Restore); err != nil {
		return err
	}

	defer tr.begin("probe.tob.strong_burst")()
	st, err := workload.MicroStrongBurstStats(64, 64, 0, 0, true)
	if err != nil {
		return fmt.Errorf("strong burst: %w", err)
	}
	m["tob.ticks_per_burst"] = float64(st.Ticks)
	m["paxos.proposals_per_value"] = ratio(float64(st.Leader.Proposals), float64(st.Writes))
	m["paxos.msgs_per_commit"] = ratio(float64(st.NetSent), float64(st.Writes))
	return nil
}

// runProbes runs the probes that need no live cluster.
func runProbes(cfg runConfig, tr *tracer, in wireInputs, m map[string]float64) error {
	if err := probeWire(tr, in, 5000/cfg.probeScale, m); err != nil {
		return err
	}
	if err := probeCore(tr, cfg.probeScale, m); err != nil {
		return err
	}
	if _, done := m["store.fsync_floor_ms"]; done {
		return nil
	}
	tmp, err := os.MkdirTemp("", "bench-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	return probeFsync(tr, tmp, 200/cfg.probeScale, m)
}

// residual computes livenet.residual_ms: the part of the weak median no
// outside measurement attributes to a layer. A weak invoke is one
// controller round trip, one engine invoke, and — on a durable node — the
// persist that must complete before the reply: the serving node's share of
// the saves, at the probe's cost per save.
func residual(m map[string]float64) {
	b := budgetOf(m)
	m["livenet.residual_ms"] = b.residual
}

// budget splits weak_p50_ms into the rows the budget line prints; they sum
// to the measured median by construction.
type budget struct {
	weakP50, rpcRTT, core, store, residual float64
}

func budgetOf(m map[string]float64) budget {
	b := budget{
		weakP50: m["weak_p50_ms"],
		rpcRTT:  m["livenet.rpc_rtt_us"] / 1e3,
		core:    m["core.invoke_us"] / 1e3,
		store:   m["store.saves_per_op"] / 3 * m["store.save_ms"],
	}
	b.residual = b.weakP50 - b.rpcRTT - b.core - b.store
	return b
}

func (b budget) String() string {
	return fmt.Sprintf("weak_p50_ms %.3f = rpc_rtt %.3f + core %.3f + store %.3f + residual %.3f",
		b.weakP50, b.rpcRTT, b.core, b.store, b.residual)
}
