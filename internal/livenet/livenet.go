// Package livenet runs the Bayou protocol over real goroutines and channels
// instead of the deterministic simulator: one goroutine per replica, channel
// inboxes as links, wall-clock-free logical timestamps, and the original
// Bayou primary-commit scheme for total order (replica 0 stamps commit
// numbers; learners apply a hold-back buffer, so channel scheduling order
// does not matter).
//
// The package exists to demonstrate that internal/core is a pure state
// machine with no dependency on the simulation substrate, and to exercise
// the protocol under true concurrency (`go test -race ./internal/livenet`).
// Sessions live on the shared record.Recorder, as on internal/cluster, so
// the bayou façade drives either substrate through one Driver interface and
// the same programs run on both. Simulation remains the tool for the
// paper's experiments (determinism is what makes the figures reproducible);
// livenet is the shape a real deployment driver takes.
//
// There is one controller (controller.go): it owns the recorder, the invoke
// preamble, the fault view and quiescence, and reaches the replicas through
// a carrier. The fabric in this file carries in-process — goroutines and
// channel inboxes; client.go carries over sockets to one OS process per
// replica.
//
// The replica automaton itself (type node) is substrate-blind a second
// time over: it talks to its surroundings only through the host interface
// — a peer fabric to send protocol messages into and an observation sink
// for recorder events. The fabric implements host with channel inboxes and
// the controller's recorder; remote.go implements it with TCP links
// (internal/wire envelopes) and an event stream back to the controller
// process, so the same node code runs in-process and as one OS process per
// replica.
package livenet

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bayou/internal/core"
	"bayou/internal/record"
	"bayou/internal/wire"
)

// ErrStopped is returned for operations on a stopped cluster.
var ErrStopped = errors.New("livenet: cluster stopped")

// ErrTimeout is returned when an operation misses its deadline.
var ErrTimeout = errors.New("livenet: timed out")

// ErrReplicaDown is returned for operations addressed to a crashed replica.
var ErrReplicaDown = errors.New("livenet: replica is crashed")

// inboxSize bounds each replica's message queue. Sends are blocking;
// workloads that could overrun it should be throttled by awaiting calls.
const inboxSize = 1 << 14

type msgKind int

const (
	msgInvoke      msgKind = iota + 1
	msgRBDeliver           // a batch of RB broadcasts from one peer
	msgForward             // weak/strong requests en route to the primary
	msgCommitBatch         // primary's ordering announcement for a contiguous run
	msgInspect             // run a closure on the replica goroutine (reads, stats)
	msgCrash               // fault plane: drop volatile state, start discarding traffic
	msgRecover             // fault plane: restore from the durable snapshot and resync
	msgResync              // a recovering peer asks for retransmission
	msgStateXfer           // sequencer ships a checkpoint to a learner behind its log
)

type message struct {
	kind     msgKind
	reqs     []core.Req // msgRBDeliver/msgForward batch; msgCommitBatch run (numbers commitNo..commitNo+len-1)
	commitNo int64
	from     core.ReplicaID // msgResync: the recovering requester
	// msgInvoke: the invocation as the client's session table admitted it
	// (record.Recorder.Admit), with the session's frozen demand vectors,
	// fence and lease-read cast gate, so the node never reads the
	// recorder; failFast rejects it on a coverage miss instead of parking.
	inv      core.Invocation
	failFast bool
	call     *record.Call           // the pre-minted pending call (nil on a remote node: the controller holds it)
	ckpt     *core.CheckpointRecord // msgStateXfer: the transferred image
	reply    chan error             // msgInvoke/msgCrash/msgRecover: the node's verdict
	inspect  func(*node)
	done     chan struct{}
}

// obsKind tags one observation event a node emits toward the recorder.
type obsKind int

const (
	obsComplete obsKind = iota + 1 // pending call accepted: dot/ts/tob
	obsCancel                      // pending call withdrawn (down, fail-fast, invoke error)
	obsLease                       // strong read served under the ordering lease
	obsTOB                         // a commit applied (TOB delivery number)
	obsTransition
	obsResponded
	obsStable
	obsLost
)

// obsEvent is one recorder-bound observation. In-process the call pointer
// identifies the pending invocation directly; on a remote node call is nil
// and sess identifies it (sessions are sequential, so at most one pending
// invocation per session exists at a time).
type obsEvent struct {
	kind  obsKind
	call  *record.Call
	sess  core.SessionID
	dot   core.Dot
	ts    int64
	tob   bool
	no    int64
	resp  core.Response
	trans core.Transition
}

// host is the node's view of its surroundings: the peer fabric protocol
// traffic flows into and the observation sink recorder events flow into.
// fabric implements it with channels and the controller's recorder in the
// same process; remoteNode (remote.go) implements it with TCP links and an
// event stream to the controller process. Client invocations reach the node
// as the core.Invocation the controller's recorder admitted (msgInvoke); the
// node serves them with core.Replica.Covers/Accept and reports back only
// through observe, so what the host contributes to admission is where the
// completion goes and, for parked invocations, persistBeforeSend.
type host interface {
	// sendPeer delivers a protocol message to another replica (parking it
	// on partitions, dropping or parking it toward crashed targets — the
	// fault semantics live in the fabric, not the node).
	sendPeer(from, to int, m message)
	// observe sinks one recorder-bound event. Events are emitted in the
	// node's processing order and must be applied in that order.
	observe(ev obsEvent)
	// endBurst is called once per inbox burst, after internal work has
	// drained: the in-process host signals quiescence watchers, the remote
	// host flushes coalesced peer envelopes.
	endBurst()
	// persistBeforeSend makes the node's state durable now, counting tob
	// (TOB casts not yet sent) as outbound: the remote host saves its
	// image; the in-process fabric has no stable storage.
	persistBeforeSend(tob []core.Req)
}

// Config parametrizes an in-process live deployment.
type Config struct {
	N       int
	Variant core.Variant
	// CheckpointEvery makes every replica checkpoint once it has that many
	// committed entries past its last checkpoint (0 disables automatic
	// checkpointing; Controller.Checkpoint triggers one manually either way).
	// The sequencer additionally truncates its commit log below its own
	// checkpoint and serves older learners by state transfer.
	CheckpointEvery int
	// LeaderLease lets the sequencer (replica 0) serve strong read-only
	// operations locally from its committed prefix, with zero forwarding
	// round-trips. The primary-commit scheme makes replica 0 a degenerate
	// permanent leaseholder: it is the only node that ever stamps commits
	// and it cannot crash (Crash(0) is refused), so its committed prefix is
	// the global one by construction — the fault-honesty obligation "never
	// serve after losing the lease" is vacuous because the lease cannot be
	// lost. A real deployment over wall clocks would bound the grant with a
	// clock-skew safety margin; see DESIGN.md for the argument and for how
	// the simulator's Paxos substrate carries the non-degenerate version.
	LeaderLease bool
}

// fabric is the in-process carrier: one goroutine per replica with channel
// inboxes as links. It is the host of its nodes — peer sends with partition
// parking, the observation sink, the progress epoch — and the carrier the
// Controller drives them through.
type fabric struct {
	nodes []*node
	clock atomic.Int64
	wg    sync.WaitGroup
	sink  func(obsEvent) // the controller's observe

	// progress is the quiescence signal: each node burst closes and
	// replaces the current channel, so Quiesce can wait for state to move
	// instead of busy-polling.
	progMu sync.Mutex
	progCh chan struct{} // guarded by progMu

	// Partition cells (all equal when healed) and the messages parked on
	// partition boundaries. The partition model matches simnet's:
	// cross-cell traffic is held and released on Heal (reliable links
	// retransmit); traffic to a crashed replica is dropped for good. cell
	// is replaced whole by faultView and never mutated in place.
	partMu sync.Mutex
	cell   []int     // guarded by partMu
	held   []heldMsg // guarded by partMu
}

// heldMsg is a message parked on a partition boundary.
type heldMsg struct {
	from, to int
	m        message
}

type node struct {
	id    core.ReplicaID
	h     host
	n     int          // deployment size
	clock func() int64 // logical timestamp source
	// leaseHeld is the ordering-lease predicate core.Replica.Accept asks
	// before serving a strong read locally: with leases on, the sequencer
	// is the degenerate permanent leaseholder (its committed prefix is the
	// global one by construction); nil on every other node, or with
	// leases off.
	leaseHeld func() bool
	ckptE     int // automatic checkpoint cadence (0 = off)
	replica   *core.Replica
	inbox     chan message
	stop      chan struct{}

	// Fault plane. down is the goroutine-local crashed flag; crashed is
	// its atomic shadow read by senders (so traffic toward a crashed
	// replica is dropped at the source, mirroring the network dropping
	// it). snap is the durable image taken when the crash hit.
	down    bool
	crashed atomic.Bool
	snap    core.Snapshot

	// Primary (sequencer) state, used on replica 0 only. Like a real
	// sequencer's commit log it is durable: commitLog retains the stamped
	// requests past the sequencer's checkpoint (commit number logBase+i+1
	// at index i) so recovering learners can refetch commits they slept
	// through; learners older than logBase catch up by state transfer.
	commitNo  int64
	stamped   map[string]bool
	commitLog []core.Req
	logBase   int64

	// ckpting guards the checkpoint drain against cadence re-entrance.
	ckpting bool

	// Learner hold-back: commits applied in stamped order.
	nextCommit int64
	held       map[int64]core.Req

	// effPool recycles effect accumulators; rbBatch buffers RB deliveries
	// pulled from the inbox in one burst so they hit the replica as a
	// single batch; fwdBatch (sequencer only) buffers forwarded requests
	// the same way, so a burst of strong traffic is stamped as one
	// contiguous run of commit numbers and announced to each peer in a
	// single batched commit message.
	effPool  core.EffectsPool
	rbBatch  []core.Req
	fwdBatch []core.Req

	// parked holds guarantee-gated invocations waiting for this replica's
	// state to cover their session vectors; each burst retries them after
	// draining. Parked entries survive a crash (they are client-side
	// continuations, not replica state) and retry after recovery — in a
	// node process through NodeImage, since the caller was already told
	// the invocation was accepted.
	parked []parkedInvoke
}

// parkedInvoke is one admitted invocation blocked on a coverage gate. Inv
// is what NodeImage persists; the call pointer is in-process only (a node
// process's is always nil).
type parkedInvoke struct {
	Inv  core.Invocation
	call *record.Call
}

func (n *node) takeEff() *core.Effects { return n.effPool.Take() }
func (n *node) putEff(e *core.Effects) { n.effPool.Put(e) }

// newFabric starts one replica goroutine per node; observations flow into
// sink.
func newFabric(cfg Config, sink func(obsEvent)) *fabric {
	f := &fabric{
		sink:   sink,
		progCh: make(chan struct{}),
		cell:   make([]int, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		nd := newNode(core.ReplicaID(i), cfg.N, cfg.Variant, f, func() int64 {
			// A shared logical clock keeps timestamps globally unique
			// and roughly synchronized without wall-clock flakiness.
			return f.clock.Add(1)
		}, cfg.LeaderLease, cfg.CheckpointEvery)
		f.nodes = append(f.nodes, nd)
	}
	for _, nd := range f.nodes {
		f.wg.Add(1)
		go func(nd *node) {
			defer f.wg.Done()
			nd.run()
		}(nd)
	}
	return f
}

// newNode builds one replica automaton bound to a host.
func newNode(id core.ReplicaID, n int, variant core.Variant, h host, clock func() int64, lease bool, ckptEvery int) *node {
	nd := &node{
		id:         id,
		h:          h,
		n:          n,
		clock:      clock,
		ckptE:      ckptEvery,
		inbox:      make(chan message, inboxSize),
		stop:       make(chan struct{}),
		stamped:    make(map[string]bool),
		nextCommit: 1,
		held:       make(map[int64]core.Req),
	}
	if lease && id == 0 {
		nd.leaseHeld = func() bool { return true }
	}
	nd.replica = core.NewReplica(id, variant, clock)
	nd.replica.EnableTransitions()
	return nd
}

// stop implements carrier: it terminates every replica goroutine and waits
// for them.
func (f *fabric) stop() {
	for _, nd := range f.nodes {
		close(nd.stop)
	}
	f.wg.Wait()
}

// observe implements host: in-process the call pointer is always present
// (the client minted it), so the event lands on the recorder as is.
func (f *fabric) observe(ev obsEvent) { f.sink(ev) }

// applyObs lands one observation event on a recorder, stamped with the
// applying side's wall clock. Both carriers funnel through it (via
// Controller.observe), so the two deployments record identically.
func applyObs(rec *record.Recorder, ev *obsEvent, wall int64) {
	switch ev.kind {
	case obsComplete:
		rec.CompleteInvoke(ev.call, ev.dot, ev.ts, ev.tob, wall)
	case obsCancel:
		rec.CancelInvoke(ev.call)
	case obsLease:
		rec.LeaseServed(ev.dot, ev.no)
	case obsTOB:
		rec.TOBDelivered(ev.dot, ev.no)
	case obsTransition:
		rec.Transition(ev.trans, wall)
	case obsResponded:
		rec.Responded(ev.resp, wall)
	case obsStable:
		rec.StableNoticed(ev.resp, wall)
	case obsLost:
		rec.ResultLost(ev.dot, wall)
	}
}

// endBurst implements host: it publishes a progress epoch by closing the
// current progress channel and installing a fresh one, waking every Quiesce
// waiter to re-check convergence.
func (f *fabric) endBurst() {
	f.progMu.Lock()
	ch := f.progCh
	f.progCh = make(chan struct{})
	f.progMu.Unlock()
	close(ch)
}

// persistBeforeSend implements host: in-process state is never persisted
// (the crash model keeps node.snap in memory).
func (f *fabric) persistBeforeSend([]core.Req) {}

// progress implements carrier with the channel the next endBurst will
// close: convergence is event-driven, no polling.
func (f *fabric) progress(int) <-chan struct{} {
	f.progMu.Lock()
	defer f.progMu.Unlock()
	return f.progCh
}

// sendPeer implements host; it is the replica-to-replica network: it parks
// cross-partition traffic until Heal and drops connected traffic toward a
// crashed replica (the loss the resync handshake repairs). The order
// matters and matches simnet's pinned semantics: a message parked on a
// partition models a retransmitting link, so it survives a crash–recover of
// its target, while a message sent on an open link to a crashed node is
// gone for good.
func (f *fabric) sendPeer(from, to int, m message) {
	f.partMu.Lock()
	if f.cell[from] != f.cell[to] {
		f.held = append(f.held, heldMsg{from: from, to: to, m: m})
		f.partMu.Unlock()
		return
	}
	f.partMu.Unlock()
	if f.nodes[to].crashed.Load() {
		return
	}
	select {
	case f.nodes[to].inbox <- m:
	case <-f.nodes[to].stop:
	}
}

// faultView implements carrier: it adopts the controller's partition cells
// and re-sends, through the normal path, the held messages whose endpoints
// the new view connects and whose target is up — a parked message toward a
// crashed replica stays parked (the link keeps retransmitting) until the
// view that follows its recovery releases it. The down set is not needed
// here: each node publishes its own crashed flag, which sendPeer reads.
func (f *fabric) faultView(cells []int, _ []bool) {
	f.partMu.Lock()
	f.cell = cells
	var released []heldMsg
	keep := f.held[:0]
	for _, h := range f.held {
		if f.cell[h.from] == f.cell[h.to] && !f.nodes[h.to].crashed.Load() {
			released = append(released, h)
		} else {
			keep = append(keep, h)
		}
	}
	f.held = keep
	f.partMu.Unlock()
	for _, h := range released {
		f.sendPeer(h.from, h.to, h.m)
	}
}

// submit implements carrier: the message goes straight onto the replica's
// inbox and the node's verdict comes straight back. For an invocation the
// replica completes the call, parks it on the coverage gate, or cancels
// it; the verdict is immediate either way, so an invoke never blocks on
// coverage — a parked call simply stays pending until the replica catches
// up.
func (f *fabric) submit(replica int, m message) error {
	nd := f.nodes[replica]
	m.reply = make(chan error, 1)
	select {
	case nd.inbox <- m:
	case <-nd.stop:
		return ErrStopped
	}
	select {
	case err := <-m.reply:
		return err
	case <-nd.stop:
		return ErrStopped
	}
}

// query implements carrier: the question is answered on the replica's own
// goroutine (after it has drained its internal work).
func (f *fabric) query(replica int, q query, timeout time.Duration) (a answer, err error) {
	if ierr := f.inspect(replica, timeout, func(n *node) { a, err = n.answer(q) }); ierr != nil {
		return answer{}, ierr
	}
	return a, err
}

// inspect runs fn on the replica's own goroutine and waits for it, bounded
// by timeout.
func (f *fabric) inspect(replica int, timeout time.Duration, fn func(*node)) error {
	nd := f.nodes[replica]
	done := make(chan struct{})
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case nd.inbox <- message{kind: msgInspect, inspect: fn, done: done}:
	case <-timer.C:
		return ErrTimeout
	case <-nd.stop:
		return ErrStopped
	}
	select {
	case <-done:
		return nil
	case <-timer.C:
		return ErrTimeout
	case <-nd.stop:
		return ErrStopped
	}
}

// maxBurst caps how many queued messages one burst pulls before the node
// flushes RB batches and drains internal work. Without the cap a saturated
// inbox (blocking senders keep it non-empty) would defer execution — and
// therefore responses — indefinitely.
const maxBurst = 256

// run is the replica goroutine: a strict event loop over the inbox, exactly
// the atomic-step automaton model of the paper — with opportunistic
// batching: whatever has queued up while the replica was busy is pulled in
// one burst (capped), consecutive RB deliveries collapse into a single
// batched schedule adjustment, and internal work is drained once per burst
// instead of once per message.
func (n *node) run() {
	for {
		select {
		case <-n.stop:
			return
		case m := <-n.inbox:
			n.process(m)
		burst:
			for i := 1; i < maxBurst; i++ {
				select {
				case m2 := <-n.inbox:
					n.process(m2)
				default:
					break burst
				}
			}
			if !n.down {
				n.flushRB()
				n.flushFwd()
				n.settleLocal()
			}
			n.h.endBurst()
		}
	}
}

// settleLocal drains internal work and retries parked invocations until
// neither makes progress: a completed invocation produces new internal
// work, and drained work (an executed demanded dot, an applied commit) can
// unlock another parked invocation.
func (n *node) settleLocal() {
	for {
		n.drain()
		if !n.retryParked() {
			return
		}
	}
}

// accept serves a covered invocation (core.Replica.Accept) and reports its
// completion. A parked invocation was acknowledged when it parked, so
// unless it was served as a lease read (nothing cast) the host makes its
// completion durable before any of its frames leave: a crash before that
// save retries it from the persisted parked list, one after it
// re-announces the minted request — never both.
func (n *node) accept(pi parkedInvoke, parked bool) error {
	eff := n.takeEff()
	defer n.putEff(eff)
	req, leased, err := n.replica.Accept(pi.Inv, n.leaseHeld, eff)
	if err != nil {
		return err
	}
	n.h.observe(obsEvent{
		kind: obsComplete, call: pi.call, sess: pi.Inv.Session,
		dot: req.Dot, ts: req.Timestamp, tob: len(eff.TOBCast) > 0,
	})
	if leased {
		n.h.observe(obsEvent{kind: obsLease, dot: req.Dot, no: int64(n.replica.CommittedLen())})
	} else if parked {
		n.h.persistBeforeSend(eff.TOBCast)
	}
	n.route(*eff)
	return nil
}

// retryParked completes every parked invocation whose coverage now holds;
// it reports whether any completed.
func (n *node) retryParked() bool {
	if n.down || len(n.parked) == 0 {
		return false
	}
	progress := false
	for i := 0; i < len(n.parked); {
		pi := n.parked[i]
		if !n.replica.Covers(pi.Inv) {
			i++
			continue
		}
		// Off the list first: the image accept persists must not hold it.
		n.parked = slices.Delete(n.parked, i, i+1)
		if err := n.accept(pi, true); err != nil {
			panic(fmt.Sprintf("livenet: gated invoke on %d: %v", n.id, err))
		}
		progress = true
	}
	return progress
}

// recover restores the replica from its durable snapshot on the node's own
// goroutine, then asks every peer for retransmission: tentative suffixes
// arrive as ordinary RB deliveries, missed commits replay from the
// sequencer's log. Runs entirely before the next inbox message, so the
// restored state is never observed half-built.
func (n *node) recover() {
	eff := n.takeEff()
	restored, err := core.RestoreReplica(n.snap, n.clock, true, eff)
	if err != nil {
		panic(fmt.Sprintf("livenet: recover %d: %v", n.id, err))
	}
	n.replica = restored
	// The learner hold-back is volatile; in the primary scheme commits map
	// 1:1 onto the committed log, so the next expected commit number is
	// derived from the snapshot (absolute — the checkpointed prefix counts).
	n.held = make(map[int64]core.Req)
	n.nextCommit = int64(n.snap.CommittedLen()) + 1
	n.down = false
	n.crashed.Store(false)
	n.route(*eff) // continuations answered from the committed-while-down prefix
	n.putEff(eff)
	for peer := 0; peer < n.n; peer++ {
		if peer != int(n.id) {
			n.h.sendPeer(int(n.id), peer, message{kind: msgResync, from: n.id, commitNo: n.nextCommit})
		}
	}
	// Invocations parked before the crash survived it (they are client-side
	// continuations); the restored prefix may already cover them.
	n.settleLocal()
}

// antiEntropy is one background repair tick (remote substrate only; the
// in-process fabric never loses frames and never calls it): ask one
// peer, round-robin across ticks, for retransmission from the local commit
// cursor — the same idempotent handshake recovery uses, re-driven
// periodically so frames lost to corruption teardowns, write timeouts, or
// the fault injector are repaired without an explicit recovery event. The
// sequencer additionally stamps any TOB-cast request it has learned via RB
// but never received the forward for.
func (n *node) antiEntropy(cursor *int) {
	if n.down || n.n <= 1 {
		return
	}
	if n.id == 0 {
		n.stampTentative()
	}
	t := *cursor % n.n
	if t == int(n.id) {
		t = (t + 1) % n.n
	}
	*cursor = t + 1
	n.h.sendPeer(int(n.id), t, message{kind: msgResync, from: n.id, commitNo: n.nextCommit})
}

// stampTentative commits requests the sequencer knows only tentatively.
// Every request on a tentative list was TOB-cast by its origin (weak
// updates broadcast and forward together), so a tentative entry with no
// stamp and no committed record means the forward frame was lost — and
// stamping from the RB copy is indistinguishable from receiving it: the
// stamp filter dedups the forward if it does arrive later.
func (n *node) stampTentative() {
	var stale []core.Req
	for _, r := range n.replica.Tentative() {
		if !n.stamped[r.ID()] && !n.replica.KnownCommitted(r.Dot) {
			stale = append(stale, r)
		}
	}
	if len(stale) > 0 {
		n.stampBatch(stale)
	}
}

// answerResync retransmits to a recovering peer: every tentative request
// this node holds (the requester's duplicate filters drop what it already
// knows) as one batched delivery, plus — on the sequencer — the commit log
// from the requester's next expected commit number as one batched commit
// run. A requester whose cursor predates the sequencer's checkpoint gets
// the checkpoint image first (state transfer) and per-commit replay only
// for the log that survives past it. This is also the bootstrap path of a
// multi-process node: it sends a resync on startup, and a lagging learner
// catches up by checkpoint image instead of channel replay.
func (n *node) answerResync(m message) {
	if tent := n.replica.Tentative(); len(tent) > 0 {
		n.h.sendPeer(int(n.id), int(m.from), message{kind: msgRBDeliver, reqs: tent})
	}
	if n.id == 0 {
		from := m.commitNo
		if from <= n.logBase {
			if rec, ok := n.replica.CheckpointRecord(); ok {
				n.h.sendPeer(0, int(m.from), message{kind: msgStateXfer, commitNo: int64(rec.BaseLen), ckpt: rec})
			}
			from = n.logBase + 1
		}
		if from <= n.commitNo {
			run := append([]core.Req(nil), n.commitLog[from-1-n.logBase:]...)
			n.h.sendPeer(0, int(m.from), message{kind: msgCommitBatch, commitNo: from, reqs: run})
		}
	}
}

// installCheckpoint adopts a transferred checkpoint on the node's own
// goroutine: the replica installs the image, orphaned continuations resolve
// as lost results, and the learner cursor jumps past the transferred prefix.
func (n *node) installCheckpoint(rec *core.CheckpointRecord) {
	eff := n.takeEff()
	stats, err := n.replica.InstallCheckpoint(rec, eff)
	if err != nil {
		n.putEff(eff)
		panic(fmt.Sprintf("livenet: install checkpoint on %d: %v", n.id, err))
	}
	if stats.Installed {
		n.route(*eff)
		if int64(rec.BaseLen)+1 > n.nextCommit {
			n.nextCommit = int64(rec.BaseLen) + 1
		}
		var batch []core.Req
		for {
			next, ok := n.held[n.nextCommit]
			if !ok {
				break
			}
			delete(n.held, n.nextCommit)
			n.nextCommit++
			batch = append(batch, next)
		}
		for no := range n.held {
			if no < n.nextCommit {
				delete(n.held, no)
			}
		}
		first := n.nextCommit - int64(len(batch))
		for i, next := range batch {
			n.h.observe(obsEvent{kind: obsTOB, dot: next.Dot, no: first + int64(i)})
			beff := n.takeEff()
			if err := n.replica.TOBDeliverInto(next, beff); err == nil {
				n.route(*beff)
			}
			n.putEff(beff)
		}
	}
	n.putEff(eff)
}

// checkpoint drains the replica and checkpoints its stable state; on the
// sequencer the commit log truncates below the new base. Runs on the node's
// goroutine.
func (n *node) checkpoint() (int, error) {
	if n.ckpting || n.down {
		return 0, nil
	}
	n.ckpting = true
	defer func() { n.ckpting = false }()
	n.drain()
	stats, err := n.replica.Checkpoint(n.replica.CommittedLen())
	if err != nil {
		return 0, fmt.Errorf("livenet: checkpoint on %d: %w", n.id, err)
	}
	if stats.Truncated == 0 {
		return 0, nil
	}
	if n.id == 0 {
		base := int64(stats.BaseLen)
		if cut := base - n.logBase; cut > 0 {
			if cut > int64(len(n.commitLog)) {
				cut = int64(len(n.commitLog))
			}
			for _, r := range n.commitLog[:cut] {
				delete(n.stamped, r.ID())
			}
			fresh := make([]core.Req, len(n.commitLog)-int(cut))
			copy(fresh, n.commitLog[cut:])
			n.commitLog = fresh
			n.logBase += cut
		}
	}
	return stats.Truncated, nil
}

// maybeCheckpoint runs the automatic cadence after applied commits.
func (n *node) maybeCheckpoint() {
	every := n.ckptE
	if every <= 0 || n.down || n.ckpting {
		return
	}
	if n.replica.CommittedLen()-n.replica.BaseLen() < every {
		return
	}
	if _, err := n.checkpoint(); err != nil {
		panic(err)
	}
}

// answer serves one controller query against the replica. It is the single
// spelling of the nine inspections: both carriers run it on the node
// goroutine — the fabric through an inspect closure, a node process when
// the query arrives as an RPC.
func (n *node) answer(q query) (answer, error) {
	switch q.kind {
	case qRead:
		return answer{value: n.replica.Read(q.key)}, nil
	case qCommitted:
		return answer{reqs: n.replica.Committed()}, nil
	case qStats:
		return answer{stats: n.replica.Stats()}, nil
	case qCompact:
		return answer{n: n.replica.Compact()}, nil
	case qCheckpoint:
		truncated, err := n.checkpoint()
		return answer{n: truncated}, err
	case qBaseLen:
		return answer{n: n.replica.BaseLen()}, nil
	case qProbe:
		return answer{n: n.replica.CommittedLen(), flag: n.replica.HasInternalWork()}, nil
	case qCovered:
		return answer{flag: n.replica.CoversSession(q.read, q.write)}, nil
	case qDurability:
		// The storage half of the scorecard is the hosting process's to
		// fill in (remoteNode.serveQuery); in-process there is none.
		return answer{durab: &wire.Durability{Committed: int64(n.replica.CommittedLen())}}, nil
	}
	return answer{}, fmt.Errorf("livenet: unknown query kind %d", q.kind)
}

// process handles one message; RB deliveries are buffered (flushed before
// any other message kind so per-node delivery order is preserved). A
// crashed node answers only the fault plane (and inspections, which read
// the stale pre-crash state like the simulator does) and discards protocol
// traffic — the crash already dropped it conceptually; the resync handshake
// refetches what matters.
func (n *node) process(m message) {
	if n.down {
		switch m.kind {
		case msgInvoke:
			n.h.observe(obsEvent{kind: obsCancel, call: m.call, sess: m.inv.Session})
			m.reply <- fmt.Errorf("%w: %d (session %d)", ErrReplicaDown, n.id, m.inv.Session)
		case msgCrash:
			m.reply <- fmt.Errorf("%w: %d already crashed", ErrReplicaDown, n.id)
		case msgRecover:
			n.recover()
			m.reply <- nil
		case msgInspect:
			m.inspect(n)
			close(m.done)
		case msgRBDeliver, msgForward, msgCommitBatch, msgResync, msgStateXfer:
			// Dropped: the node is down.
		}
		return
	}
	if m.kind == msgRBDeliver {
		n.rbBatch = append(n.rbBatch, m.reqs...)
		return
	}
	if m.kind == msgForward && n.id == 0 {
		n.fwdBatch = append(n.fwdBatch, m.reqs...)
		return
	}
	n.flushRB()
	n.flushFwd()
	switch m.kind {
	case msgInvoke:
		// The pending call already holds the session's busy mark: accept,
		// park, or reject on coverage.
		pi := parkedInvoke{Inv: m.inv, call: m.call}
		switch {
		case n.replica.Covers(m.inv):
			if err := n.accept(pi, false); err != nil {
				n.h.observe(obsEvent{kind: obsCancel, call: m.call, sess: m.inv.Session})
				m.reply <- fmt.Errorf("livenet: invoke on %d: %w", n.id, err)
				return
			}
			m.reply <- nil
		case m.failFast:
			n.h.observe(obsEvent{kind: obsCancel, call: m.call, sess: m.inv.Session})
			m.reply <- fmt.Errorf("%w: session %d at replica %d", record.ErrGuarantee, m.inv.Session, n.id)
		default:
			n.parked = append(n.parked, pi)
			m.reply <- nil
		}
	case msgForward:
		// Forwards to the sequencer were buffered above; one addressed to
		// anybody else was misrouted and is dropped.
	case msgCommitBatch:
		for i, r := range m.reqs {
			n.applyCommit(m.commitNo+int64(i), r)
		}
	case msgStateXfer:
		n.installCheckpoint(m.ckpt)
	case msgCrash:
		n.down = true
		n.crashed.Store(true)
		n.snap = n.replica.Snapshot()
		n.rbBatch = n.rbBatch[:0] // buffered deliveries die with the process
		n.fwdBatch = n.fwdBatch[:0]
		m.reply <- nil
	case msgRecover:
		m.reply <- fmt.Errorf("livenet: replica %d is not crashed", n.id)
	case msgResync:
		n.answerResync(m)
	case msgInspect:
		// Drain before answering so an inspection mid-burst still
		// observes every message processed ahead of it.
		n.drain()
		m.inspect(n)
		close(m.done)
	}
}

// flushRB feeds the buffered RB deliveries to the replica as one batch.
func (n *node) flushRB() {
	if len(n.rbBatch) == 0 {
		return
	}
	eff := n.takeEff()
	if err := n.replica.RBDeliverBatch(n.rbBatch, eff); err == nil {
		n.route(*eff)
	}
	n.putEff(eff)
	n.rbBatch = n.rbBatch[:0]
}

// flushFwd stamps the buffered forwarded requests as one contiguous run.
func (n *node) flushFwd() {
	if len(n.fwdBatch) == 0 {
		return
	}
	n.stampBatch(n.fwdBatch)
	n.fwdBatch = n.fwdBatch[:0]
}

// stampBatch is the primary's sequencer step, batched: every request in
// the run not already stamped is appended to the durable commit log under
// the next commit numbers, each peer receives the whole run as a single
// commit announcement, and the sequencer applies the run to itself
// synchronously. One send per peer per burst, not per request — the
// commit-log append batching that keeps the sequencer off the
// per-operation critical path under strong-write load.
func (n *node) stampBatch(reqs []core.Req) {
	var fresh []core.Req
	for _, r := range reqs {
		if n.stamped[r.ID()] || n.replica.KnownCommitted(r.Dot) {
			// The stamp filter only covers commits past the sequencer's
			// checkpoint; the replica's committed knowledge (base summary +
			// suffix) covers the truncated rest — the sequencer applies its
			// own stamps synchronously, so everything it ever stamped is
			// committed locally. Re-stamping would mint a second commit
			// number.
			continue
		}
		n.stamped[r.ID()] = true
		n.commitNo++
		n.commitLog = append(n.commitLog, r)
		fresh = append(fresh, r)
	}
	if len(fresh) == 0 {
		return
	}
	first := n.commitNo - int64(len(fresh)) + 1
	for peer := 0; peer < n.n; peer++ {
		if peer == int(n.id) {
			continue
		}
		n.h.sendPeer(int(n.id), peer, message{kind: msgCommitBatch, commitNo: first, reqs: fresh})
	}
	for i, r := range fresh {
		n.applyCommit(first+int64(i), r)
	}
}

// applyCommit enforces stamped order regardless of channel scheduling; a
// commit that unblocks held successors delivers the whole run as one batch.
func (n *node) applyCommit(no int64, r core.Req) {
	if no < n.nextCommit {
		return
	}
	n.held[no] = r
	var batch []core.Req
	for {
		next, ok := n.held[n.nextCommit]
		if !ok {
			break
		}
		delete(n.held, n.nextCommit)
		n.nextCommit++
		batch = append(batch, next)
	}
	if len(batch) == 0 {
		return
	}
	// Each commit is delivered with its own pooled accumulator: an
	// invariant error on one commit withholds that transition's effects
	// (whose contents are unspecified on error) without dropping the rest
	// of the cascade.
	first := n.nextCommit - int64(len(batch))
	for i, next := range batch {
		n.h.observe(obsEvent{kind: obsTOB, dot: next.Dot, no: first + int64(i)})
		eff := n.takeEff()
		if err := n.replica.TOBDeliverInto(next, eff); err == nil {
			n.route(*eff)
		}
		n.putEff(eff)
	}
	n.maybeCheckpoint()
}

// drain runs the replica's internal work and routes the produced effects.
func (n *node) drain() {
	eff := n.takeEff()
	if _, err := n.replica.DrainInto(eff); err == nil {
		n.route(*eff)
	}
	n.putEff(eff)
}

// route fans a step's effects out to the other replicas and the recorder.
// Peer traffic is batched: one RB envelope (and at most one forward
// envelope) per peer per effects, carrying the whole cast — the effects
// accumulator is pooled, so the batch is copied out before fan-out.
func (n *node) route(eff core.Effects) {
	if len(eff.RBCast) > 0 {
		rs := append([]core.Req(nil), eff.RBCast...)
		for peer := 0; peer < n.n; peer++ {
			if peer != int(n.id) {
				n.h.sendPeer(int(n.id), peer, message{kind: msgRBDeliver, reqs: rs})
			}
		}
	}
	if len(eff.TOBCast) > 0 {
		if n.id == 0 {
			n.stampBatch(eff.TOBCast)
		} else {
			rs := append([]core.Req(nil), eff.TOBCast...)
			n.h.sendPeer(int(n.id), 0, message{kind: msgForward, reqs: rs})
		}
	}
	for _, t := range eff.Transitions {
		n.h.observe(obsEvent{kind: obsTransition, trans: t})
	}
	for _, resp := range eff.Responses {
		n.h.observe(obsEvent{kind: obsResponded, resp: resp})
	}
	for _, notice := range eff.StableNotices {
		n.h.observe(obsEvent{kind: obsStable, resp: notice})
	}
	for _, lost := range eff.Lost {
		n.h.observe(obsEvent{kind: obsLost, dot: lost.Dot})
	}
}
