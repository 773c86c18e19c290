package livenet

import (
	"fmt"

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

// NodeImage is one process's durable state. A log segment's base record is
// a whole NodeImage, every later record a delta NodeImage (logImage, apply).
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
// deliveries) cost no log append. The last record's fingerprint also says
// where its append-only parts ended, for the next delta (logImage).
type fingerprint struct {
	base        *core.CheckpointRecord
	committed   int // len(Snap.Committed), past base
	eventNo     int64
	awaiting    int
	awaitStable int
	ownTent     int
	outbound    int
	parked      int
	commitNo    int64
	logBase     int64
	// evSeq is the cumulative event count (evBase + journal length): any
	// newly emitted event forces an append before the flush externalizes
	// it. Acks alone leave it unchanged — a skipped append then keeps
	// already acked events in the image, which a restart harmlessly
	// resends.
	evSeq int64
}

// persist appends the node's durable image to the log if it changed since
// the last record. Runs on the node goroutine only (endBurst, the pre-reply
// sync, and the post-shutdown final save after the goroutine has exited),
// so it reads node state without locks. A failed write stops the node
// (failStop): the acknowledgements it gates must never leave.
func (r *remoteNode) persist(n *node) {
	if r.st == nil || n.down || r.stopped() {
		return
	}
	img := r.image(n)
	fp := fingerprint{
		base:        img.Snap.Base,
		committed:   len(img.Snap.Committed),
		eventNo:     img.Snap.EventNo,
		awaiting:    len(img.Snap.Awaiting),
		awaitStable: len(img.Snap.AwaitStable),
		ownTent:     len(img.OwnTentative),
		outbound:    len(img.Outbound),
		parked:      len(img.Parked),
		commitNo:    img.CommitNo,
		logBase:     img.LogBase,
		evSeq:       img.EvBase + int64(len(img.EvLog)),
	}
	if fp == r.lastFP {
		return
	}
	if err := r.logImage(img, r.lastFP); err != nil {
		r.failStop(fmt.Errorf("persist: %w", err))
		return
	}
	r.saves.Add(1)
	r.lastFP = fp
	// Both copies of the log hold the journal through fp.evSeq, so those
	// events may now be flushed: even if one copy is later torn, the other
	// still restores a counter at or past everything the controller has
	// applied.
	r.evMu.Lock()
	if fp.evSeq > r.evDurable {
		r.evDurable = fp.evSeq
	}
	r.evMu.Unlock()
}

// image builds the node's durable image. It aliases the replica's
// committed suffix, the commit log and the event journal rather than
// copying them: the node goroutine, which persist runs on, is their only
// appender, and an ack replaces the journal rather than trimming it in
// place.
func (r *remoteNode) image(n *node) NodeImage {
	img := NodeImage{
		Snap:      n.replica.Snapshot(),
		CommitNo:  n.commitNo,
		LogBase:   n.logBase,
		CommitLog: n.commitLog,
		Parked:    n.parked,
	}
	for _, t := range n.replica.Tentative() {
		if t.Dot.Replica == n.id {
			img.OwnTentative = append(img.OwnTentative, t)
		}
	}
	for _, req := range r.outbound {
		img.Outbound = append(img.Outbound, req)
	}
	r.evMu.Lock()
	img.EvBase = r.evBase
	img.EvLog = r.evLog[:len(r.evLog):len(r.evLog)]
	r.evMu.Unlock()
	return img
}

// logImage appends img to the log as a delta: a NodeImage holding only the
// committed, commit-log and journal entries added since the last record,
// every other field in full. A new checkpoint base, a trimmed commit log,
// a log that shrank (boot restored an older image) or a full segment make
// it a new segment's base instead: the whole image.
func (r *remoteNode) logImage(img NodeImage, last fingerprint) error {
	if r.st.NeedBase() || img.Snap.Base != last.base || len(img.Snap.Committed) < last.committed ||
		img.LogBase != last.logBase || img.CommitNo < last.commitNo {
		_, err := r.st.Save(img)
		return err
	}
	d := img
	d.Snap.Base = nil
	d.Snap.Committed = img.Snap.Committed[last.committed:]
	d.CommitLog = img.CommitLog[last.commitNo-img.LogBase:]
	d.EvLog = img.EvLog[max(0, last.evSeq-img.EvBase):]
	return r.st.Append(d)
}

// apply folds one delta record (logImage) into the image the records
// before it rebuilt: the committed suffix and the commit log grow by the
// record's entries, the journal drops what the record's EvBase acked and
// grows by its events, and every other field takes the record's value.
func (img *NodeImage) apply(d NodeImage) {
	d.Snap.Base = img.Snap.Base
	d.Snap.Committed = append(img.Snap.Committed, d.Snap.Committed...)
	d.CommitLog = append(img.CommitLog, d.CommitLog...)
	acked := min(int64(len(img.EvLog)), max(0, d.EvBase-img.EvBase))
	d.EvLog = append(img.EvLog[acked:], d.EvLog...)
	*img = d
}

// syncPersist runs one persist on the node goroutine and waits for it —
// called before an RPC reply externalizes state, so anything the
// controller has been told is on disk first (or the node has stopped, and
// reply sends nothing).
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

// loadImage opens the data dir and rebuilds the newest durable image: the
// newest intact segment's base with every intact record after it applied.
// ok=false (nothing durable, or dir empty) means clean bootstrap: the node
// starts fresh and catches up from peers like any late joiner.
func loadImage(dir string) (*store.Store, NodeImage, int64, bool, error) {
	st, err := store.Open(dir, 0) // 0: store.DefaultKeep segments
	if err != nil {
		return nil, NodeImage{}, 0, false, err
	}
	var img NodeImage
	gen, ok, err := st.Replay(&img, func(decode func(any) error) error {
		var d NodeImage
		if err := decode(&d); err != nil {
			return err
		}
		img.apply(d)
		return nil
	})
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
