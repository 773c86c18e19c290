package livenet

import (
	"fmt"
	"os"

	"bayou/internal/core"
	"bayou/internal/store"
	"bayou/internal/wire"
)

// This file is the stable storage of a node process (remote.go): what is
// written on the checkpoint/burst cadence, what a SIGKILL'd process finds
// on disk at the next boot, and how the boot image is spliced back into a
// running automaton. The in-process fabric has no durability — its crash
// model keeps the "durable image" in memory (node.snap) — so everything
// here lives on the remote substrate only.
//
// The durable unit is NodeImage: the replica's core.Snapshot (the image the
// crash model already calls durable) plus the two pieces of livenet-level
// state that must survive with it — the sequencer's commit log (replica 0
// is the commit authority; losing its log would orphan every learner behind
// it) and the node's own not-yet-committed requests. The latter close the
// lost-update window: a request this node minted and acknowledged may exist
// nowhere else if the frames announcing it were still in flight (or
// dropped by the fault injector) when the process died, so it is persisted
// here and re-announced at boot — receivers dedup, so re-announcing what
// did arrive is harmless. For the same reason the image carries the
// guarantee-gated invocations parked on coverage: the controller was told
// each was accepted, and nothing outside this process knows of it.

// NodeImage is one process's durable state, gob-encoded into a store
// generation.
type NodeImage struct {
	// Snap is the replica's durable image: committed prefix, checkpoint
	// base, dot counter, clock watermark, owed responses.
	Snap core.Snapshot

	// Sequencer state (meaningful on replica 0 only): the stamped commit
	// log past its checkpoint and the counters that index it. The stamp
	// filter is rebuilt from the log at boot.
	CommitNo  int64
	LogBase   int64
	CommitLog []core.Req

	// OwnTentative is this node's own still-tentative weak updates (they
	// re-enter the schedule and are re-broadcast at boot); Outbound is
	// every request forwarded to the sequencer and not yet seen committed —
	// under Algorithm 2 a pending strong request lives on no tentative list,
	// so without this record its body would not survive the process.
	OwnTentative []core.Req
	Outbound     []core.Req

	// Parked is the guarantee-gated invocations waiting on coverage. Each
	// was acknowledged to the controller when it parked, and lives nowhere
	// else until it completes.
	Parked []parkedInvoke

	// EvBase/EvLog are the controller event journal: the observation
	// stream suffix the controller has not yet acknowledged applying.
	// The replica clears its own owed-response bookkeeping the moment a
	// notice is emitted, so a completion flushed into a TCP buffer that a
	// SIGKILL then destroys survives nowhere else; persisting the unacked
	// suffix lets the restarted process resend it (the controller dedups
	// by sequence number).
	EvBase int64
	EvLog  []wire.Event
}

// dotSkipMargin is added to the restored dot counter at boot. Persistence
// runs once per burst, so at most one burst's worth of mints (maxBurst) can
// have escaped to the network without reaching disk; skipping far past the
// persisted counter guarantees a recovered node never re-mints a dot some
// peer already holds.
const dotSkipMargin = 4 * maxBurst

// fingerprint summarizes the durable state cheaply; persistence is skipped
// while it is unchanged, so idle bursts (probes, reads, redundant
// deliveries) cost no fsync.
type fingerprint struct {
	eventNo     int64
	committed   int
	awaiting    int
	awaitStable int
	ownTent     int
	outbound    int
	parked      int
	commitNo    int64
	logBase     int64
	// evSeq is the cumulative event count (evBase + journal length): any
	// newly emitted event forces a save before the flush externalizes it.
	// Acks alone leave it unchanged — a skipped save then keeps already
	// acked events in the image, which a restart harmlessly resends.
	evSeq int64
}

// persist writes the node's durable image if it changed since the last
// save. Runs on the node goroutine only (endBurst, the pre-reply sync, and
// the post-shutdown final save after the goroutine has exited), so it reads
// node state without locks. Save failures are logged and retried next
// burst: losing durability degrades recovery to peer rescue, it does not
// stop the node.
func (r *remoteNode) persist(n *node) {
	if r.st == nil || n.down {
		return
	}
	snap := n.replica.Snapshot()
	var ownTent []core.Req
	for _, t := range n.replica.Tentative() {
		if t.Dot.Replica == n.id {
			ownTent = append(ownTent, t)
		}
	}
	r.evMu.Lock()
	evBase := r.evBase
	evLog := append([]wire.Event(nil), r.evLog...)
	r.evMu.Unlock()
	fp := fingerprint{
		eventNo:     snap.EventNo,
		committed:   snap.CommittedLen(),
		awaiting:    len(snap.Awaiting),
		awaitStable: len(snap.AwaitStable),
		ownTent:     len(ownTent),
		outbound:    len(r.outbound),
		parked:      len(n.parked),
		commitNo:    n.commitNo,
		logBase:     n.logBase,
		evSeq:       evBase + int64(len(evLog)),
	}
	if fp == r.lastFP {
		return
	}
	img := NodeImage{
		Snap:         snap,
		CommitNo:     n.commitNo,
		LogBase:      n.logBase,
		CommitLog:    n.commitLog,
		OwnTentative: ownTent,
		Parked:       n.parked,
		EvBase:       evBase,
		EvLog:        evLog,
	}
	for _, req := range r.outbound {
		img.Outbound = append(img.Outbound, req)
	}
	// Twin save: the image lands in two consecutive generations before
	// anything gated on this persist externalizes. A crash mid-save is
	// already harmless (Save renames atomically, so a torn tmp never
	// becomes a generation); the twin covers the harsher fault of a
	// completed generation corrupting on disk afterwards — the fallback
	// rung of the recovery ladder then lands on an identical image, so a
	// single rotten file can never retract state the node acknowledged.
	for twin := 0; twin < 2; twin++ {
		if _, err := r.st.Save(img); err != nil {
			fmt.Fprintf(os.Stderr, "bayou-node %d: persist: %v\n", r.cfg.ID, err)
			return
		}
		r.saves.Add(1)
	}
	r.lastFP = fp
	// Both twins hold the journal through fp.evSeq, so those events may now
	// be flushed: even if the newest generation is later torn, the fallback
	// rung still restores a counter at or past everything the controller
	// has applied.
	r.evMu.Lock()
	if fp.evSeq > r.evDurable {
		r.evDurable = fp.evSeq
	}
	r.evMu.Unlock()
}

// syncPersist runs one persist on the node goroutine and waits for it —
// called before an RPC reply externalizes state, so anything the
// controller has been told is on disk first.
func (r *remoteNode) syncPersist() {
	if r.st == nil {
		return
	}
	done := make(chan struct{})
	r.deliver(message{kind: msgInspect, inspect: func(n *node) { r.persist(n) }, done: done})
	select {
	case <-done:
	case <-r.nd.stop:
	}
}

// loadImage opens the data dir and loads the newest intact generation.
// ok=false (nothing durable, or dir empty) means clean bootstrap: the node
// starts fresh and catches up from peers like any late joiner.
func loadImage(dir string) (*store.Store, NodeImage, int64, bool, error) {
	st, err := store.Open(dir, 0) // 0: store.DefaultKeep generations
	if err != nil {
		return nil, NodeImage{}, 0, false, err
	}
	var img NodeImage
	gen, ok, err := st.Load(&img)
	if err != nil {
		return nil, NodeImage{}, 0, false, err
	}
	return st, img, gen, ok, nil
}

// bootRestore splices a loaded image into the (freshly built, not yet
// running) node. Runs before the node goroutine starts, so fields are
// written without synchronization. The dot counter skips a margin past the
// persisted value: mints that escaped to the network after the last save
// must never be re-minted for different operations.
func (n *node) bootRestore(img NodeImage) {
	img.Snap.EventNo += dotSkipMargin
	eff := n.takeEff()
	restored, err := core.RestoreReplica(img.Snap, n.clock, true, eff)
	if err != nil {
		panic(fmt.Sprintf("livenet: boot restore %d: %v", n.id, err))
	}
	n.replica = restored
	n.held = make(map[int64]core.Req)
	n.nextCommit = int64(img.Snap.CommittedLen()) + 1
	n.parked = img.Parked // retried by bootAnnounce's settleLocal
	if n.id == 0 {
		n.commitNo = img.CommitNo
		n.logBase = img.LogBase
		n.commitLog = img.CommitLog
		for _, r := range n.commitLog {
			n.stamped[r.ID()] = true
		}
	}
	// Responses recomputed for owed sessions route to the event buffer and
	// reach the controller when it (re)connects; duplicates of responses it
	// already applied are dropped by the recorder.
	n.route(*eff)
	n.putEff(eff)
}

// reforwardOutbound re-drives this node's TOB casts that have not been
// seen committed — the mid-run counterpart of bootAnnounce's re-forward,
// run on the anti-entropy tick. A forward frame lost to wire corruption or
// a dead sequencer link would otherwise strand its strong request forever
// (nothing else retransmits it while this process stays up). The sequencer
// dedups, so re-forwarding one that did arrive costs a frame and nothing
// else. Runs on the node goroutine.
func (r *remoteNode) reforwardOutbound(n *node) {
	if n.down || len(r.outbound) == 0 {
		return
	}
	var stale []core.Req
	for id, rq := range r.outbound {
		if n.replica.KnownCommitted(rq.Dot) {
			delete(r.outbound, id)
			continue
		}
		stale = append(stale, rq)
	}
	if len(stale) == 0 {
		return
	}
	if n.id == 0 {
		n.stampBatch(stale)
	} else {
		n.h.sendPeer(int(n.id), 0, message{kind: msgForward, reqs: stale})
	}
}

// bootAnnounce is the network half of recovery, run as the node's first
// message once the goroutine is up: re-enter and re-broadcast the node's
// own surviving tentative updates, re-forward its uncommitted TOB casts to
// the sequencer, and ask every peer for retransmission from the restored
// commit cursor. Every receiver path dedups, so the parts of this that did
// survive in the network are re-announced harmlessly.
func (n *node) bootAnnounce(img NodeImage) {
	if len(img.OwnTentative) > 0 {
		eff := n.takeEff()
		if err := n.replica.RBDeliverBatch(img.OwnTentative, eff); err == nil {
			n.route(*eff)
		}
		n.putEff(eff)
		rs := append([]core.Req(nil), img.OwnTentative...)
		for peer := 0; peer < n.n; peer++ {
			if peer != int(n.id) {
				n.h.sendPeer(int(n.id), peer, message{kind: msgRBDeliver, reqs: rs})
			}
		}
	}
	var forward []core.Req
	for _, r := range img.OwnTentative {
		if !n.replica.KnownCommitted(r.Dot) {
			forward = append(forward, r)
		}
	}
	for _, r := range img.Outbound {
		if !n.replica.KnownCommitted(r.Dot) {
			forward = append(forward, r)
		}
	}
	if len(forward) > 0 {
		if n.id == 0 {
			n.stampBatch(forward)
		} else {
			n.h.sendPeer(int(n.id), 0, message{kind: msgForward, reqs: forward})
		}
	}
	for peer := 0; peer < n.n; peer++ {
		if peer != int(n.id) {
			n.h.sendPeer(int(n.id), peer, message{kind: msgResync, from: n.id, commitNo: n.nextCommit})
		}
	}
	n.settleLocal()
}
