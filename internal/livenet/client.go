package livenet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bayou/internal/core"
	"bayou/internal/record"
	"bayou/internal/wire"
)

// This file is the socket carrier: every replica is a separate OS process
// (cmd/bayou-node) reached over one internal/wire connection. It gives the
// Controller the same five operations the in-process fabric does, so the
// driver-conformance suites run the same scripts against goroutines and
// channels and against node processes, and must reach identical outcomes.

// rpcTimeout bounds one controller RPC round-trip when the caller supplied
// no tighter deadline.
const rpcTimeout = 30 * time.Second

// ctrlWriteTimeout bounds each controller frame write, so a frozen
// (SIGSTOP'd) node fails the send instead of wedging the caller.
const ctrlWriteTimeout = 5 * time.Second

// redialBudget is the per-attempt dial budget of the controller's
// reconnect loop — short, so the loop observes Stop promptly; the loop
// itself retries until the node returns or the controller stops.
const redialBudget = time.Second

// faultViewTimeout bounds each node's slice of a fault-view broadcast; an
// unresponsive node forfeits the push and catches up on reconnect.
const faultViewTimeout = 5 * time.Second

// streamLostMark tags the synthetic replies failPending fabricates when a
// node's stream breaks with RPCs in flight; rpcT retries idempotent
// requests that failed with it.
const streamLostMark = "stream lost"

// pendingRPC is one in-flight round-trip, tagged with its target node so a
// lost node stream fails exactly the RPCs waiting on that node.
type pendingRPC struct {
	node int
	ch   chan wire.Envelope
}

// sockets is the carrier of a multi-process deployment, one wire connection
// per node.
//
// Node connections are resilient: when a node's stream breaks (the process
// was SIGKILL'd, or a frame failed its checksum and the connection was torn
// down), the RPCs in flight to that node fail, and a background loop
// redials until the node — possibly a restarted process recovering from its
// data dir — accepts again, then re-sends the current fault view so the
// fresh process knows the partition picture.
type sockets struct {
	addrs   []string
	sink    func(obsEvent) // the controller's observe
	seq     atomic.Uint64
	stopped atomic.Bool
	wg      sync.WaitGroup

	connMu sync.Mutex
	conns  []*wire.Conn // guarded by connMu; entry replaced on reconnect

	// evApplied[i] is the highest event sequence number applied from node
	// i's stream. Nodes journal events until acked: every outgoing RPC
	// carries the counter back (Envelope.AckEv), and a reconnecting — or
	// restarted — node resends its whole unacked journal, so events whose
	// first transmission died with a connection or a SIGKILL'd process
	// arrive on the next stream. Resent duplicates are skipped here by
	// sequence number. Written only by the node's readLoop goroutine; read
	// by any RPC sender.
	evApplied []atomic.Int64

	// maxTS is the largest completion timestamp observed across all nodes.
	// Every outgoing RPC carries it as the envelope Clock, and the node
	// merges it into its Lamport clock — so an invocation reaching node B
	// after this controller saw a completion from node A is timestamped
	// after it, preserving session (and controller-observed) order in the
	// cross-process request order the checkers reconstruct.
	maxTS atomic.Int64

	mu      sync.Mutex
	pendRPC map[uint64]pendingRPC // guarded by mu

	// view is the last fault view the controller pushed, kept to re-send to
	// a node whose stream reconnects. The slices are never mutated. viewNo
	// numbers it: pushes to one node can overtake each other (a reconnect's
	// re-send is a goroutine of its own), and a node keeps only the newest,
	// so a stale view cannot re-partition it after a heal. Numbering starts
	// at the controller's start time in nanoseconds, so a later controller's
	// views supersede an earlier one's on nodes that outlive it.
	viewMu sync.Mutex
	cells  []int  // guarded by viewMu
	down   []bool // guarded by viewMu
	viewNo int64  // guarded by viewMu
}

// dialSockets connects to every node process and starts the event-stream
// readers; observations flow into sink.
func dialSockets(addrs []string, sink func(obsEvent)) (*sockets, error) {
	n := len(addrs)
	s := &sockets{
		addrs:     append([]string(nil), addrs...),
		sink:      sink,
		pendRPC:   make(map[uint64]pendingRPC),
		evApplied: make([]atomic.Int64, n),
		cells:     make([]int, n),
		down:      make([]bool, n),
		viewNo:    time.Now().UnixNano(),
	}
	hello := wire.Envelope{Kind: wire.KindHello, From: wire.ControllerID}
	for i := 0; i < n; i++ {
		conn, err := wire.Dial(addrs[i], hello, wire.DefaultConnectBudget)
		if err != nil {
			for _, c := range s.conns {
				c.Close()
			}
			return nil, fmt.Errorf("livenet: node %d: %w", i, err)
		}
		conn.SetWriteTimeout(ctrlWriteTimeout)
		s.conns = append(s.conns, conn)
	}
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			s.readLoop(i)
		}(i)
	}
	return s, nil
}

// readLoop applies one node's frames in arrival order: observation events
// land on the recorder, replies resolve their waiting RPC. A node sends an
// invocation's events before its reply on the same connection, so by the
// time an invoke RPC returns the completion is recorded — the same
// ordering the in-process host gets from running observe synchronously.
//
// A stream failure — the node process died, its connection reset, or a
// frame arrived corrupt (wire.ErrCorrupt: the stream is no longer at a
// frame boundary and cannot be resumed) — fails this node's in-flight RPCs
// and enters the redial loop; the loop survives any number of node
// restarts and exits only on Stop.
func (s *sockets) readLoop(node int) {
	for {
		conn := s.conn(node)
		s.drainConn(node, conn)
		if s.stopped.Load() {
			return
		}
		conn.Close()
		s.failPending(node)
		hello := wire.Envelope{Kind: wire.KindHello, From: wire.ControllerID}
		for {
			if s.stopped.Load() {
				return
			}
			fresh, err := wire.Dial(s.addrs[node], hello, redialBudget)
			if err != nil {
				continue
			}
			fresh.SetWriteTimeout(ctrlWriteTimeout)
			if !s.setConn(node, fresh) {
				return
			}
			// A reconnected process (possibly freshly restarted) needs the
			// current fault picture; its reply drains through this loop.
			go s.pushView(node, rpcTimeout)
			break
		}
	}
}

// drainConn applies frames from one connection until it fails.
func (s *sockets) drainConn(node int, conn *wire.Conn) {
	for {
		var env wire.Envelope
		if err := conn.Recv(&env); err != nil {
			return
		}
		switch env.Kind {
		case wire.KindEvents:
			// Events carry absolute sequence numbers (the frame's last is
			// EvSeq); a reconnected or restarted node resends its whole
			// unacked journal, so skip what this controller already
			// applied — replaying a stale completion against a session's
			// NEW pending call would complete it with the old call's dot.
			applied := s.evApplied[node].Load()
			first := env.EvSeq - int64(len(env.Events)) + 1
			for i, ev := range env.Events {
				if first+int64(i) <= applied {
					continue
				}
				s.applyEvent(ev)
			}
			if env.EvSeq > applied {
				s.evApplied[node].Store(env.EvSeq)
			}
		case wire.KindReply:
			s.mu.Lock()
			pend, ok := s.pendRPC[env.Seq]
			delete(s.pendRPC, env.Seq)
			s.mu.Unlock()
			if ok {
				pend.ch <- env
			}
		}
	}
}

// failPending resolves every RPC in flight to one node with an error: its
// stream is gone, so no reply is coming.
func (s *sockets) failPending(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for seq, pend := range s.pendRPC {
		if pend.node != node {
			continue
		}
		delete(s.pendRPC, seq)
		select {
		case pend.ch <- wire.Envelope{Kind: wire.KindReply, Seq: seq, Err: fmt.Sprintf("livenet: node %d %s", node, streamLostMark)}:
		default:
		}
	}
}

// conn returns the node's current connection.
func (s *sockets) conn(node int) *wire.Conn {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.conns[node]
}

// setConn installs a fresh connection for a node. It refuses (closing the
// connection) once the controller has stopped, so a redial racing Stop
// cannot install a stream nobody will ever close.
func (s *sockets) setConn(node int, c *wire.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.stopped.Load() {
		c.Close()
		return false
	}
	s.conns[node] = c
	return true
}

// pushView sends the last fault view to one node, best effort: a node that
// is unreachable — SIGKILLed, frozen, mid-redial — gets the then-current
// view again when its stream reconnects (see readLoop), so a dead process
// cannot fail a partition of the live ones.
func (s *sockets) pushView(node int, timeout time.Duration) {
	s.viewMu.Lock()
	env := wire.Envelope{Kind: wire.KindFaultView, Cells: s.cells, Down: s.down, Int: s.viewNo}
	s.viewMu.Unlock()
	_, _ = s.rpcT(node, &env, timeout) // re-pushed on reconnect
}

// faultView implements carrier: the view ships to every node (crashed ones
// too: they need it current when they recover), and the nodes release the
// traffic it reconnects.
func (s *sockets) faultView(cells []int, down []bool) {
	s.viewMu.Lock()
	s.cells, s.down = cells, down
	s.viewNo++
	s.viewMu.Unlock()
	for i := range s.addrs {
		s.pushView(i, faultViewTimeout)
	}
}

// applyEvent hands one remote observation to the controller. The node ships
// events call-blind (the pending call lives on the controller's recorder,
// which resolves it by session).
func (s *sockets) applyEvent(ev wire.Event) {
	for {
		cur := s.maxTS.Load()
		if ev.TS <= cur || s.maxTS.CompareAndSwap(cur, ev.TS) {
			break
		}
	}
	s.sink(obsEvent{
		kind:  obsKind(ev.EKind),
		sess:  core.SessionID(ev.Sess),
		dot:   ev.Dot,
		ts:    ev.TS,
		tob:   ev.TOB,
		no:    ev.No,
		resp:  ev.Resp,
		trans: ev.Trans,
	})
}

// rpcT runs one round-trip against a node, bounded by the caller's
// deadline — a wedged node (SIGSTOP'd, or silently dropping frames)
// surfaces ErrTimeout to Inspect/Quiesce instead of hanging the controller.
// Within the deadline it rides out stream loss: a send that never left
// this process is always safe to retry on the redialed stream, and a
// request that did leave retries only when re-asking is harmless — Invoke
// plants an operation, every other kind is a read-only probe.
func (s *sockets) rpcT(node int, env *wire.Envelope, timeout time.Duration) (wire.Envelope, error) {
	if s.stopped.Load() {
		return wire.Envelope{}, ErrStopped
	}
	if timeout <= 0 {
		timeout = rpcTimeout
	}
	deadline := time.Now().Add(timeout)
	idempotent := env.Kind != wire.KindInvoke
	for {
		reply, sent, err := s.rpcOnce(node, env, deadline)
		if err == nil {
			return reply, nil
		}
		if s.stopped.Load() || time.Now().After(deadline) {
			return reply, err
		}
		if !sent || (idempotent && strings.Contains(err.Error(), streamLostMark)) {
			time.Sleep(25 * time.Millisecond)
			continue
		}
		return reply, err
	}
}

// rpcOnce is a single attempt: stamp a fresh sequence number, send, wait.
// sent reports whether the request left this process — a false return can
// never have reached the node.
func (s *sockets) rpcOnce(node int, env *wire.Envelope, deadline time.Time) (_ wire.Envelope, sent bool, _ error) {
	env.Seq = s.seq.Add(1)
	env.Clock = s.maxTS.Load()
	env.AckEv = s.evApplied[node].Load()
	ch := make(chan wire.Envelope, 1)
	s.mu.Lock()
	s.pendRPC[env.Seq] = pendingRPC{node: node, ch: ch}
	s.mu.Unlock()
	conn := s.conn(node)
	if err := conn.Send(env); err != nil {
		// A failed send may have left a partial frame on the stream; close
		// so the read loop tears down and redials rather than desyncing.
		conn.Close()
		s.mu.Lock()
		delete(s.pendRPC, env.Seq)
		s.mu.Unlock()
		return wire.Envelope{}, false, fmt.Errorf("livenet: rpc to node %d: %w", node, err)
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case reply := <-ch:
		if reply.Err != "" {
			return reply, true, remoteError(reply.Err)
		}
		return reply, true, nil
	case <-timer.C:
		s.mu.Lock()
		delete(s.pendRPC, env.Seq)
		s.mu.Unlock()
		return wire.Envelope{}, true, fmt.Errorf("livenet: rpc to node %d: %w", node, ErrTimeout)
	}
}

// remoteError rehydrates the sentinel errors the façade and the tests
// branch on; everything else arrives as an opaque remote error.
func remoteError(s string) error {
	for _, sentinel := range []error{ErrReplicaDown, ErrStopped, ErrTimeout, record.ErrGuarantee, record.ErrSessionBusy} {
		if strings.Contains(s, sentinel.Error()) {
			return fmt.Errorf("%w (node: %s)", sentinel, s)
		}
	}
	return errors.New(s)
}

// submit implements carrier. An invocation mirrors the in-process client
// exactly: the admitted core.Invocation travels inside the envelope field
// by field (wire.Envelope.Gated is no longer read: a plain session's
// invocation carries empty demands, which every replica covers), and the
// node's completion or cancellation event is applied (readLoop) before the
// RPC reply resolves.
func (s *sockets) submit(replica int, m message) error {
	env := wire.Envelope{Kind: wire.KindCrash}
	switch m.kind {
	case msgRecover:
		env.Kind = wire.KindRecover
	case msgInvoke:
		env = wire.Envelope{
			Kind:     wire.KindInvoke,
			Sess:     int64(m.inv.Session),
			Op:       m.inv.Op,
			Strong:   m.inv.Level == core.Strong,
			FailFast: m.failFast,
			Read:     m.inv.Read,
			Write:    m.inv.Write,
			Fence:    m.inv.Fence,
			CastOK:   m.inv.CastOK,
			CastCeil: m.inv.CastCeil,
		}
	}
	_, err := s.rpcT(replica, &env, rpcTimeout)
	return err
}

// queryKinds maps each query onto its RPC envelope kind.
var queryKinds = [...]wire.Kind{
	qRead:       wire.KindRead,
	qCommitted:  wire.KindCommitted,
	qStats:      wire.KindStats,
	qCompact:    wire.KindCompact,
	qCheckpoint: wire.KindCheckpoint,
	qBaseLen:    wire.KindBaseLen,
	qProbe:      wire.KindProbe,
	qCovered:    wire.KindCovered,
	qDurability: wire.KindDurability,
}

// queryFor is the inverse of queryKinds (0: not a query envelope).
func queryFor(k wire.Kind) queryKind {
	for qk, kind := range queryKinds {
		if kind == k {
			return queryKind(qk)
		}
	}
	return 0
}

// query implements carrier: one RPC round-trip; the node process runs
// node.answer on its node goroutine (remoteNode.serveQuery).
func (s *sockets) query(replica int, q query, timeout time.Duration) (answer, error) {
	env := wire.Envelope{Kind: queryKinds[q.kind], Key: q.key, Read: q.read, Write: q.write}
	reply, err := s.rpcT(replica, &env, timeout)
	if err != nil {
		return answer{}, err
	}
	return answer{
		value: reply.Value,
		reqs:  reply.Reqs,
		stats: reply.Stats,
		n:     int(reply.Int),
		flag:  reply.Bool,
		durab: reply.Durab,
	}, nil
}

// progress implements carrier. The node-side progress signal does not cross
// the wire, so this is the polled variant of the in-process event-driven
// wait: a backoff doubling from 1 ms to 50 ms, paced on top of the probes'
// real network round-trips.
func (s *sockets) progress(round int) <-chan struct{} {
	wait := 50 * time.Millisecond
	if round < 6 {
		wait = time.Millisecond << round
	}
	ch := make(chan struct{})
	time.AfterFunc(wait, func() { close(ch) })
	return ch
}

// stop implements carrier: it shuts the node processes down (best effort)
// and closes the connections. The process launcher owns the OS processes;
// after stop they exit on their own.
func (s *sockets) stop() {
	s.stopped.Store(true)
	s.connMu.Lock()
	for _, conn := range s.conns {
		env := wire.Envelope{Kind: wire.KindShutdown, Seq: s.seq.Add(1)}
		_ = conn.Send(&env) // best effort; the reply may race the close below
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}
