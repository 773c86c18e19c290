package livenet

import (
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bayou/internal/core"
	"bayou/internal/store"
	"bayou/internal/wire"
)

// This file is the node-process half of the multi-process deployment: one
// replica automaton (the same type node the in-process fabric runs)
// hosted behind a TCP listener, speaking internal/wire envelopes. Peers
// exchange the replica protocol; the controller process (client.go) drives
// invocations, inspections, and the fault plane over the same listener and
// receives the node's observation events as a stream.
//
// The fault semantics mirror the in-process fabric with one documented
// shift: the in-process network drops traffic toward a crashed replica at
// the sender, while the wire transport discards it at the receiver (the
// down node) — indistinguishable to the protocol, since both are repaired
// by the recovery resync. Partition parking is sender-side in both: each
// node holds cross-cell envelopes under the controller's broadcast fault
// view and releases them when a new view reconnects the cells, with
// release gated on the target being up, exactly like the in-process
// fabric's faultView.

// NodeConfig parametrizes one hosted replica.
type NodeConfig struct {
	ID              int
	Variant         core.Variant
	CheckpointEvery int
	LeaderLease     bool
	// Addrs lists every replica's listen address, indexed by replica id;
	// len(Addrs) is the deployment size and Addrs[ID] is this node's
	// listen address.
	Addrs []string

	// DataDir is the node's stable storage (empty: fully volatile, the
	// pre-durability behavior). With a data dir the node appends its
	// durable image to a write-ahead log once per dirty burst and before
	// every invoke reply, and a restarted process replays the log instead
	// of bootstrapping from peers.
	DataDir string

	// Seed governs every stochastic choice this node makes (dial-backoff
	// jitter, injected faults), so a multi-process schedule replays from
	// the per-node seeds alone.
	Seed int64
	// Chaos, when enabled, attaches a seeded frame fault injector to every
	// peer link (controller links are never injected).
	Chaos wire.FaultConfig
}

// antiEntropyEvery paces the background repair tick: each tick asks one
// peer (round-robin) for retransmission from the local commit cursor, and
// on the sequencer additionally stamps TOB-cast requests whose forward
// frame was lost. A clean TCP deployment converges without it; one with
// injected or real frame loss needs it to re-drive what was dropped.
const antiEntropyEvery = 250 * time.Millisecond

// peerWriteTimeout bounds each peer-bound frame write so a frozen
// (SIGSTOP'd) receiver surfaces a send error — tearing down the link and
// losing the frame like a drop — instead of wedging the sender's goroutine
// once kernel buffers fill.
const peerWriteTimeout = 2 * time.Second

// heldEnv is an envelope parked on a partition boundary.
type heldEnv struct {
	to  int
	env wire.Envelope
}

// peerQueueCap bounds the frames queued toward one peer while it is slow,
// partitioned away at the TCP level, or dead. Overflow drops the frame —
// loss the protocol already tolerates (receivers dedup; resync and
// anti-entropy repair real gaps) — so an unreachable peer can never wedge
// the node goroutine behind a dial backoff.
const peerQueueCap = 4096

// remoteNode hosts one replica over the wire transport; it implements host.
type remoteNode struct {
	cfg   NodeConfig
	nd    *node
	links []*wire.Link
	sendq []chan wire.Envelope // per-peer outbound pumps; nil at own index

	// clock is the node's Lamport clock: local timestamps are minted by
	// incrementing it, and every received envelope's Clock stamp merges in
	// with mergeClock — so a timestamp minted after a message arrives
	// exceeds every timestamp the sender had seen. Cross-process request
	// order (which the checkers derive from timestamps) thereby respects
	// causality; the dot still breaks exact ties.
	clock atomic.Int64

	// Controller link: events journal between bursts and flush before any
	// RPC reply so the controller applies them in emission order. The
	// journal is an acknowledged stream — every event has an absolute
	// sequence number (evBase+1 .. evBase+len(evLog) are outstanding),
	// entries retire only when a controller RPC acks them applied, the
	// whole unacked suffix resends on every controller reconnect, and the
	// suffix persists inside the NodeImage — so neither a dead connection
	// (a frame flushed into a socket nobody drains) nor a SIGKILL between
	// flush and delivery can lose a completion the recorder still needs.
	evMu   sync.Mutex
	evLog  []wire.Event  // guarded by evMu; unacked journal suffix
	evBase int64         // guarded by evMu; events acked and retired
	evSent int64         // guarded by evMu; highest seq sent on the current ctrl conn
	ctrl   *wire.Conn    // guarded by evMu; current controller connection
	quit   chan struct{} // closed on shutdown RPC

	// evDurable gates the flush: the highest sequence number covered by a
	// completed persist (MaxInt64 without a data dir — nothing survives a
	// crash there, so nothing is gated). Flushing only durable events keeps
	// the invariant the controller's dedup depends on: every sequence
	// number it has applied is in the newest on-disk image, so a restarted
	// process can never re-mint an applied number for a different event.
	// Without the gate a concurrent inspect reply could ship a mid-burst
	// event before endBurst persists it; a SIGKILL in that window would
	// regress the restored counter below the controller's cursor and its
	// dedup would then silently swallow fresh post-restart events.
	evDurable int64 // guarded by evMu

	// Fault view, as last broadcast by the controller, and its number.
	partMu sync.Mutex
	viewNo int64     // guarded by partMu
	cells  []int     // guarded by partMu
	down   []bool    // guarded by partMu
	held   []heldEnv // guarded by partMu

	// Stable storage (nil without a data dir). lastFP and outbound are
	// touched on the node goroutine only: persist runs there (endBurst and
	// the pre-reply sync), sendPeer records forwards there, observe retires
	// them there.
	st       *store.Store
	lastFP   fingerprint         // node-goroutine only; what the last record held
	outbound map[string]core.Req // node-goroutine only; forwarded, not yet committed

	// failed closes when a log write fails (failStop): from then on the
	// node sends no reply and no peer frame, and ServeNode returns failErr.
	failed  chan struct{}
	failErr error // written once, before failed closes

	// Recovery scorecard, served by the KindDurability RPC. loaded/loadedGen
	// are written once before the node goroutine starts.
	loaded    bool
	loadedGen int64
	saves     atomic.Int64
	xfersIn   atomic.Int64
}

// ServeNode hosts one replica process: it listens on cfg.Addrs[cfg.ID],
// resyncs off its peers (the bootstrap handshake — a node joining a
// deployment with history catches up by checkpoint state transfer plus
// commit replay), and serves until a shutdown RPC arrives. It is the
// entire body of cmd/bayou-node.
func ServeNode(cfg NodeConfig) error {
	n := len(cfg.Addrs)
	if cfg.ID < 0 || cfg.ID >= n {
		return fmt.Errorf("livenet: node id %d outside %d addrs", cfg.ID, n)
	}
	variant := cfg.Variant
	if variant == core.VariantDefault {
		variant = core.NoCircularCausality
	}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.ID])
	if err != nil {
		return fmt.Errorf("livenet: node %d listen: %w", cfg.ID, err)
	}
	defer ln.Close()

	r := &remoteNode{
		cfg:      cfg,
		quit:     make(chan struct{}),
		failed:   make(chan struct{}),
		cells:    make([]int, n),
		down:     make([]bool, n),
		outbound: make(map[string]core.Req),
	}
	for i := 0; i < n; i++ {
		var link *wire.Link
		if i != cfg.ID {
			link = wire.NewLink(cfg.Addrs[i], wire.Envelope{Kind: wire.KindHello, From: cfg.ID})
			// Jitter seeds derive from (node seed, peer id) so no two links
			// — on this node or its siblings booted from related seeds —
			// share a backoff schedule: a restarted node's peers redial it
			// spread out instead of in lockstep.
			link.SetDialJitter(cfg.Seed*1_000_003 + int64(cfg.ID)*64 + int64(i) + 1)
			link.SetWriteTimeout(peerWriteTimeout)
			if cfg.Chaos.Enabled() {
				link.SetFaults(cfg.Chaos.Derive(int64(cfg.ID)*64 + int64(i)))
			}
		}
		r.links = append(r.links, link)
		var q chan wire.Envelope
		if i != cfg.ID {
			q = make(chan wire.Envelope, peerQueueCap)
		}
		r.sendq = append(r.sendq, q)
	}
	// Stable storage: replay the log before the node goroutine exists, so
	// the restored state is never observed half-built.
	var img NodeImage
	if cfg.DataDir == "" {
		// Volatile node: no persist will ever run, so the flush gate must
		// stand open or no event would ever leave the process.
		r.evDurable = math.MaxInt64
	}
	if cfg.DataDir != "" {
		st, loaded, gen, ok, err := loadImage(cfg.DataDir)
		if err != nil {
			return fmt.Errorf("livenet: node %d storage: %w", cfg.ID, err)
		}
		r.st = st
		defer st.Close()
		if ok {
			img = loaded
			r.loaded = true
			r.loadedGen = gen
			// The Lamport clock resumes past the persisted watermark;
			// peer and controller frames merge in anything newer.
			r.clock.Store(img.Snap.LastTS)
			// The unacked event journal resumes too: events flushed before
			// the crash but never applied by the controller resend on its
			// first (re)connection, and anything it did apply is dropped
			// by its sequence-number dedup.
			r.evBase = img.EvBase
			r.evLog = img.EvLog
			r.evSent = img.EvBase
			r.evDurable = img.EvBase + int64(len(img.EvLog))
		}
	}
	r.nd = newNode(core.ReplicaID(cfg.ID), n, variant, r, func() int64 {
		return r.clock.Add(1)
	}, cfg.LeaderLease, cfg.CheckpointEvery)
	if r.loaded {
		r.nd.bootRestore(img)
	}
	for i := 0; i < n; i++ {
		if i != cfg.ID {
			go r.pumpPeer(i)
		}
	}

	// Bootstrap, queued as the node's first message: re-announce what only
	// this node's disk still knows, then ask every peer for retransmission
	// from the restored commit cursor (1 on a fresh boot — the late-joiner
	// handshake; past the durable prefix after a restore, so recovery is a
	// log replay plus a delta, not a full state transfer).
	bootDone := make(chan struct{})
	r.nd.inbox <- message{kind: msgInspect, inspect: func(nd *node) { nd.bootAnnounce(img) }, done: bootDone}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.nd.run()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.antiEntropyLoop()
	}()

	go func() {
		select {
		case <-r.quit:
		case <-r.failed:
		}
		ln.Close() // unblocks Accept
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-r.quit: // orderly shutdown
				close(r.nd.stop)
				wg.Wait()
				// Final save: a graceful stop leaves the newest state on
				// disk even if the last burst's save raced the shutdown.
				// The node goroutine has exited, so the direct call is safe.
				r.persist(r.nd)
				return nil
			case <-r.failed:
				close(r.nd.stop)
				wg.Wait()
				return fmt.Errorf("livenet: node %d stopped: %w", cfg.ID, r.failErr)
			default:
				return fmt.Errorf("livenet: node %d accept: %w", cfg.ID, err)
			}
		}
		go r.serveConn(wire.Wrap(c))
	}
}

// antiEntropyLoop drives the repair tick on the node goroutine until
// shutdown. The tick itself (node.antiEntropy) is a no-op on a crashed
// automaton.
func (r *remoteNode) antiEntropyLoop() {
	tick := time.NewTicker(antiEntropyEvery)
	defer tick.Stop()
	cursor := 0
	for {
		select {
		case <-r.quit:
			return
		case <-r.nd.stop:
			return
		case <-tick.C:
			done := make(chan struct{})
			r.deliver(message{kind: msgInspect, inspect: func(n *node) {
				n.antiEntropy(&cursor)
				r.reforwardOutbound(n)
			}, done: done})
			select {
			case <-done:
			case <-r.quit:
				return
			case <-r.nd.stop:
				return
			}
		}
	}
}

// serveConn reads one inbound connection: a hello frame identifies the
// dialer (peer or controller), then frames flow for the connection's life.
func (r *remoteNode) serveConn(conn *wire.Conn) {
	defer conn.Close()
	var hello wire.Envelope
	if err := conn.Recv(&hello); err != nil || hello.Kind != wire.KindHello {
		return
	}
	if hello.From == wire.ControllerID {
		r.evMu.Lock()
		r.ctrl = conn
		// A fresh controller stream restarts from the last ack: whatever
		// was sent on the old connection may have died in its socket
		// buffers, and the controller skips what it did apply by sequence
		// number, so resending the whole unacked suffix is always right.
		r.evSent = r.evBase
		r.flushLocked()
		r.evMu.Unlock()
		r.serveController(conn)
		return
	}
	r.servePeer(conn)
}

// servePeer translates peer envelopes into inbox messages.
func (r *remoteNode) servePeer(conn *wire.Conn) {
	for {
		var env wire.Envelope
		if err := conn.Recv(&env); err != nil {
			return // peer reconnects with a fresh link if it has more to say
		}
		r.mergeClock(env.Clock)
		var m message
		switch env.Kind {
		case wire.KindRBDeliver:
			m = message{kind: msgRBDeliver, reqs: env.Reqs}
		case wire.KindForward:
			m = message{kind: msgForward, reqs: env.Reqs}
		case wire.KindCommitBatch:
			m = message{kind: msgCommitBatch, commitNo: env.CommitNo, reqs: env.Reqs}
		case wire.KindStateXfer:
			// Counted on receipt (installed or not): the durable-restart
			// test asserts recovery needed zero transfers, and "one arrived
			// but was stale" would already falsify that claim.
			r.xfersIn.Add(1)
			m = message{kind: msgStateXfer, commitNo: env.CommitNo, ckpt: env.Ckpt}
		case wire.KindResync:
			m = message{kind: msgResync, from: core.ReplicaID(env.From), commitNo: env.CommitNo}
		default:
			continue
		}
		r.deliver(m)
	}
}

// deliver queues a message for the node goroutine.
func (r *remoteNode) deliver(m message) {
	select {
	case r.nd.inbox <- m:
	case <-r.nd.stop:
	}
}

// serveController handles the controller link: RPC frames answered with
// KindReply (the observation events emitted while serving flush first, on
// the same connection, so the controller applies them before the reply).
func (r *remoteNode) serveController(conn *wire.Conn) {
	for {
		var env wire.Envelope
		if err := conn.Recv(&env); err != nil {
			return
		}
		r.mergeClock(env.Clock)
		r.ackEvents(env.AckEv)
		if qk := queryFor(env.Kind); qk != 0 {
			r.serveQuery(conn, env.Seq, query{kind: qk, key: env.Key, read: env.Read, write: env.Write})
			continue
		}
		switch env.Kind {
		case wire.KindInvoke:
			level := core.Weak
			if env.Strong {
				level = core.Strong
			}
			go r.serveSubmit(conn, env.Seq, message{
				kind: msgInvoke,
				inv: core.Invocation{
					Session: core.SessionID(env.Sess), Op: env.Op, Level: level,
					Read: env.Read, Write: env.Write, Fence: env.Fence,
					CastOK: env.CastOK, CastCeil: env.CastCeil,
				},
				failFast: env.FailFast,
			})
		case wire.KindCrash:
			go r.serveSubmit(conn, env.Seq, message{kind: msgCrash})
		case wire.KindRecover:
			go r.serveSubmit(conn, env.Seq, message{kind: msgRecover})
		case wire.KindFaultView:
			r.applyFaultView(env.Int, env.Cells, env.Down)
			r.reply(conn, &wire.Envelope{Kind: wire.KindReply, Seq: env.Seq})
		case wire.KindShutdown:
			r.reply(conn, &wire.Envelope{Kind: wire.KindReply, Seq: env.Seq})
			close(r.quit)
			return
		}
	}
}

// serveSubmit runs an invocation or a crash/recover RPC on the node
// goroutine and replies with its verdict. An invocation's envelope carries
// the core.Invocation the controller's recorder admitted (frozen demand
// vectors, fence, lease gate), and the node treats it exactly like an
// in-process invoke with a nil call pointer.
func (r *remoteNode) serveSubmit(conn *wire.Conn, seq uint64, m message) {
	m.reply = make(chan error, 1)
	r.deliver(m)
	out := wire.Envelope{Kind: wire.KindReply, Seq: seq}
	select {
	case err := <-m.reply:
		if err != nil {
			out.Err = err.Error()
		}
	case <-r.nd.stop:
		out.Err = ErrStopped.Error()
	}
	if m.kind == msgInvoke {
		// Persist before the reply externalizes the invocation: once the
		// controller sees the acceptance, a SIGKILL must not unmint it.
		r.syncPersist()
	}
	r.reply(conn, &out)
}

// serveQuery runs node.answer on the node goroutine and replies with the
// answer; the storage half of a durability scorecard is filled in here.
func (r *remoteNode) serveQuery(conn *wire.Conn, seq uint64, q query) {
	out := &wire.Envelope{Kind: wire.KindReply, Seq: seq}
	done := make(chan struct{})
	r.deliver(message{kind: msgInspect, inspect: func(n *node) {
		a, err := n.answer(q)
		if err != nil {
			out.Err = err.Error()
		}
		out.Value, out.Reqs, out.Stats, out.Int, out.Bool, out.Durab = a.value, a.reqs, a.stats, int64(a.n), a.flag, a.durab
	}, done: done})
	select {
	case <-done:
		if d := out.Durab; d != nil {
			d.Loaded, d.Gen, d.Saves, d.XfersIn = r.loaded, r.loadedGen, r.saves.Load(), r.xfersIn.Load()
		}
		r.reply(conn, out)
	case <-r.nd.stop:
		r.reply(conn, &wire.Envelope{Kind: wire.KindReply, Seq: seq, Err: ErrStopped.Error()})
	}
}

// applyFaultView adopts a controller fault broadcast numbered no and
// releases parked envelopes the new view reconnects (targets still down
// stay parked, like the in-process fabric's faultView). A view older than
// the one held is ignored: pushes can overtake each other.
func (r *remoteNode) applyFaultView(no int64, cells []int, down []bool) {
	r.partMu.Lock()
	if no < r.viewNo {
		r.partMu.Unlock()
		return
	}
	r.viewNo = no
	if len(cells) == len(r.cells) {
		copy(r.cells, cells)
	}
	if len(down) == len(r.down) {
		copy(r.down, down)
	}
	var release []heldEnv
	keep := r.held[:0]
	for _, h := range r.held {
		if r.cells[r.cfg.ID] == r.cells[h.to] && !r.down[h.to] {
			release = append(release, h)
		} else {
			keep = append(keep, h)
		}
	}
	r.held = keep
	r.partMu.Unlock()
	for _, h := range release {
		r.enqueue(h.to, h.env)
	}
}

// enqueue hands a frame to the peer's outbound pump without blocking; a
// full queue (the peer has been unreachable long enough to back up
// peerQueueCap frames) drops it like a dead link drops a datagram, and a
// stopped node drops every frame.
func (r *remoteNode) enqueue(to int, env wire.Envelope) {
	if r.stopped() {
		return
	}
	select {
	case r.sendq[to] <- env:
	default:
		fmt.Fprintf(os.Stderr, "bayou-node %d: queue to %d full, dropping %v frame\n", r.cfg.ID, to, env.Kind)
	}
}

// pumpPeer drains one peer's outbound queue onto its link. The pump — not
// the node goroutine — absorbs dial backoff when the peer is down, and
// after a failed send it discards the backlog wholesale: those frames
// were addressed to a process that is gone, and the boot resync plus
// anti-entropy retransmit whatever still matters when it returns.
func (r *remoteNode) pumpPeer(to int) {
	for {
		select {
		case env := <-r.sendq[to]:
			if err := r.links[to].Send(&env); err != nil {
				dropped := 1
				for {
					select {
					case <-r.sendq[to]:
						dropped++
						continue
					default:
					}
					break
				}
				fmt.Fprintf(os.Stderr, "bayou-node %d: send to %d: %v (%d frames dropped)\n", r.cfg.ID, to, err, dropped)
			}
		case <-r.nd.stop:
			// Hang up, so the peer's reader of this connection returns
			// even when the node is hosted in a longer-lived process.
			r.links[to].Close()
			return
		}
	}
}

// mergeClock raises the Lamport clock to at least ts.
func (r *remoteNode) mergeClock(ts int64) {
	for {
		cur := r.clock.Load()
		if ts <= cur || r.clock.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// sendPeer implements host over the per-peer links, parking cross-cell
// traffic under the current fault view. Runs on the node goroutine (every
// caller is node code), so the outbound record needs no lock.
func (r *remoteNode) sendPeer(from, to int, m message) {
	if m.kind == msgForward {
		// Record TOB casts leaving this node: a frame lost in flight — to a
		// dead peer or to wire corruption — is this node's to re-drive
		// (anti-entropy re-forwards, boot re-announces), and under
		// Algorithm 2 a pending strong request lives nowhere else.
		for _, rq := range m.reqs {
			r.outbound[rq.ID()] = rq
		}
	}
	env := wire.Envelope{From: from, CommitNo: m.commitNo, Reqs: m.reqs, Ckpt: m.ckpt, Clock: r.clock.Load()}
	switch m.kind {
	case msgRBDeliver:
		env.Kind = wire.KindRBDeliver
	case msgForward:
		env.Kind = wire.KindForward
	case msgCommitBatch:
		env.Kind = wire.KindCommitBatch
	case msgStateXfer:
		env.Kind = wire.KindStateXfer
	case msgResync:
		env.Kind = wire.KindResync
		env.From = int(m.from)
	default:
		return
	}
	r.partMu.Lock()
	if r.cells[from] != r.cells[to] {
		r.held = append(r.held, heldEnv{to: to, env: env})
		r.partMu.Unlock()
		return
	}
	r.partMu.Unlock()
	r.enqueue(to, env)
}

// observe implements host: events buffer locally and flush as one frame
// per burst (or before any RPC reply).
func (r *remoteNode) observe(ev obsEvent) {
	if ev.kind == obsTOB {
		// The cast is committed; its outbound record has done its job.
		delete(r.outbound, ev.dot.String())
	}
	r.evMu.Lock()
	r.evLog = append(r.evLog, wire.Event{
		EKind: int(ev.kind),
		Sess:  int64(ev.sess),
		Dot:   ev.dot,
		TS:    ev.ts,
		TOB:   ev.tob,
		No:    ev.no,
		Resp:  ev.resp,
		Trans: ev.trans,
	})
	r.evMu.Unlock()
}

// ackEvents retires the journal prefix the controller has confirmed
// applied (AckEv rides every controller RPC request).
func (r *remoteNode) ackEvents(ack int64) {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	if ack <= r.evBase {
		return
	}
	if top := r.evBase + int64(len(r.evLog)); ack > top {
		ack = top
	}
	r.evLog = append([]wire.Event(nil), r.evLog[ack-r.evBase:]...)
	r.evBase = ack
	if r.evSent < ack {
		r.evSent = ack
	}
}

// endBurst implements host: persist first (anything the events externalize
// is then already on disk), then the burst's events ship as one frame.
// Runs on the node goroutine.
func (r *remoteNode) endBurst() {
	r.persist(r.nd)
	r.flushEvents()
}

// persistBeforeSend implements host: the casts are recorded as outbound
// (as sendPeer will) and the image saved before the frames carrying them
// are sent. Runs on the node goroutine.
func (r *remoteNode) persistBeforeSend(tob []core.Req) {
	for _, rq := range tob {
		r.outbound[rq.ID()] = rq
	}
	r.persist(r.nd)
}

// flushEvents sends the journal's unsent suffix to the controller,
// preserving emission order (one writer at a time; the controller applies
// frames sequentially).
func (r *remoteNode) flushEvents() {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	r.flushLocked()
}

// flushLocked is flushEvents with evMu already held. A failed send keeps
// the journal intact: the connection is dead, and the next controller
// connection restarts the stream from the last ack. Only events a
// completed persist covers are sent (evDurable): an event the controller
// applies must already be on disk, or a SIGKILL before the next save
// would restore a sequence counter behind the controller's dedup cursor
// and fresh post-restart events would be swallowed as duplicates.
func (r *remoteNode) flushLocked() {
	top := r.evBase + int64(len(r.evLog))
	if top > r.evDurable {
		top = r.evDurable // the rest ships after endBurst persists it
	}
	if r.ctrl == nil || r.evSent >= top {
		return
	}
	env := wire.Envelope{
		Kind:   wire.KindEvents,
		Events: r.evLog[r.evSent-r.evBase : top-r.evBase],
		EvSeq:  top,
		Clock:  r.clock.Load(),
	}
	if err := r.ctrl.Send(&env); err != nil {
		fmt.Fprintf(os.Stderr, "bayou-node %d: event stream: %v\n", r.cfg.ID, err)
		return
	}
	r.evSent = top
}

// reply flushes pending events, then sends an RPC reply — the order that
// guarantees the controller has applied an invocation's completion before
// the invoke returns. A stopped node replies nothing: the reply might
// acknowledge state that reached no disk.
func (r *remoteNode) reply(conn *wire.Conn, env *wire.Envelope) {
	if r.stopped() {
		return
	}
	r.flushEvents()
	if err := conn.Send(env); err != nil {
		fmt.Fprintf(os.Stderr, "bayou-node %d: reply: %v\n", r.cfg.ID, err)
	}
}

// failStop stops the node after a failed log write. Retrying the write is
// unsafe (after a failed fsync the kernel may have dropped the dirty pages
// and report the next fsync clean), and stopping loses nothing the node
// acknowledged: the next boot replays the last record both copies hold.
// Called only by persist, which never runs once the node has stopped.
func (r *remoteNode) failStop(err error) {
	fmt.Fprintf(os.Stderr, "bayou-node %d: %v; stopping\n", r.cfg.ID, err)
	r.failErr = err
	close(r.failed)
}

// stopped reports whether failStop has run.
func (r *remoteNode) stopped() bool {
	select {
	case <-r.failed:
		return true
	default:
		return false
	}
}
