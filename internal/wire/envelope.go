// Package wire is the socket transport of the live driver: length-prefixed
// gob envelopes over TCP, per-peer links with reconnect/backoff, and the
// controller↔node RPC framing that lets each replica of a livenet
// deployment run as a separate OS process (cmd/bayou-node) while the
// controller process keeps the shared recorder, the conformance checkers,
// and the façade surface.
//
// The envelope deliberately mirrors livenet's internal message type: one
// frame carries a whole RB/TOB delivery burst (the same batching the
// in-process inbox performs with maxBurst), so wire-level batching falls
// out of the Effects batch plumbing instead of being reinvented per
// message. Checkpoint images (core.CheckpointRecord) ride in state-transfer
// envelopes as the bootstrap and lagging-learner catch-up payload.
//
// Each connection is one gob stream: a type descriptor crosses it once, in
// the first frame that needs it, so a reader can only start at the
// beginning of a connection — and every reconnect is a new connection. A
// frame lost from the middle of a stream may have introduced a type later
// frames use; the receiver then reports ErrCorrupt and the connection is
// redialed, which costs no more than any other loss below.
//
// Delivery is at-least-once: a link that reconnects may have lost the
// frame in flight, and the resync handshake (KindResync after recovery or
// bootstrap) refetches anything missed — every receiver path dedups (RB
// duplicate filters, the sequencer's stamp filter, the learner hold-back),
// so duplicates are harmless by construction.
package wire

import (
	"encoding/gob"
	"reflect"

	"bayou/internal/core"
	"bayou/internal/spec"
	"bayou/internal/txn"
)

// Kind discriminates envelope payloads.
type Kind int

const (
	// KindHello is the first frame on every fresh connection: From
	// identifies the dialer (a replica id, or ControllerID for the
	// controller link).
	KindHello Kind = iota + 1

	// Peer protocol — the wire form of livenet's replica-to-replica
	// messages. Reqs carries the batch; CommitNo the first commit number
	// of a batch run (KindCommitBatch), the requester's resume cursor
	// (KindResync), or the image's base length (KindStateXfer).
	KindRBDeliver
	KindForward
	KindCommitBatch
	KindStateXfer
	KindResync

	// Controller → node RPCs. Every RPC carries Seq; the node answers
	// with a KindReply frame echoing it.
	KindInvoke
	KindRead
	KindCommitted
	KindStats
	KindCompact
	KindCheckpoint
	KindBaseLen
	KindProbe   // quiesce probe: committed length + internal-work flag
	KindCovered // session coverage query (Read/Write vectors)
	KindCrash
	KindRecover
	KindShutdown
	// KindFaultView broadcasts the controller's fault picture (partition
	// cells + down set) to every node; senders park cross-cell traffic and
	// re-evaluate their parked envelopes on each new view.
	KindFaultView
	// KindDurability asks a node how it came up: whether boot loaded a
	// local snapshot, which generation, how many saves since, and how many
	// peer state transfers it has accepted — the counters that let a test
	// distinguish "recovered from disk" from "rescued by peers".
	KindDurability

	// Node → controller frames: RPC replies and the observation event
	// stream. Events and the replies they order before share one
	// connection, so the controller applies them in emission order.
	KindReply
	KindEvents
)

// ControllerID is the Hello From value of the controller link (replica ids
// are non-negative).
const ControllerID = -1

// Envelope is one wire frame. It is a fat union — gob omits zero fields,
// so unused members cost nothing on the wire — covering the peer protocol,
// the controller RPCs, and the node's event stream.
type Envelope struct {
	Kind Kind
	Seq  uint64 // RPC correlation (controller link)
	From int    // sending replica (hello, peer protocol)

	// Clock is the sender's Lamport clock at send time. Every receiver
	// merges it (clock = max(clock, Clock)) before acting on the frame, so
	// timestamps minted after a message arrives exceed everything the
	// sender had seen — cross-process request order respects causality
	// without a shared clock. The controller stamps it from the largest
	// completion timestamp it has observed, which carries session order
	// across node processes.
	Clock int64

	// Peer protocol payload.
	Reqs     []core.Req
	CommitNo int64
	Ckpt     *core.CheckpointRecord

	// Invoke payload (see livenet's message: the session's frozen demand
	// vectors and lease gate travel with the invocation).
	Sess     int64
	Op       spec.Op
	Strong   bool
	Gated    bool
	FailFast bool
	Read     core.Vec
	Write    core.Vec
	Fence    int64
	CastOK   bool
	CastCeil int64

	// RPC request/reply payload.
	Key   string
	Err   string
	Value spec.Value
	Int   int64
	Bool  bool
	Stats core.Stats

	// Fault-view payload (KindFaultView); Int numbers the view, and a node
	// ignores one older than the view it holds.
	Cells []int
	Down  []bool

	// Durability payload (KindDurability reply).
	Durab *Durability

	// Event stream payload. Every event carries an absolute sequence
	// number (cumulative per node, durable across restarts): EvSeq is the
	// number of the LAST event in Events, so the first is
	// EvSeq-len(Events)+1. AckEv rides every controller→node RPC request
	// and names the highest event number the controller has applied from
	// that node; the node retires its journal up to it and resends
	// everything after it whenever the controller reconnects — an
	// acknowledged-delivery stream, so a SIGKILL or a dropped connection
	// between emission and application loses nothing.
	Events []Event
	EvSeq  int64
	AckEv  int64
}

// Durability is one node's recovery scorecard (KindDurability reply).
type Durability struct {
	Loaded    bool  // boot restored a local log
	Gen       int64 // log segment loaded at boot (0 = none)
	Saves     int64 // log appends since boot
	XfersIn   int64 // peer checkpoint state transfers accepted since boot
	Committed int64 // committed prefix length right now
}

// Event is the wire form of one recorder-bound observation (livenet's
// obsEvent with the in-process call pointer dropped: the controller owns
// the pending call and finds it by session).
type Event struct {
	EKind int
	Sess  int64
	Dot   core.Dot
	TS    int64
	TOB   bool
	No    int64
	Resp  core.Response
	Trans core.Transition
}

// concreteTypes maps the name each concrete type is registered under to
// the type, for the guard to follow interface values as the decoder does.
var concreteTypes = map[string]reflect.Type{}

// register registers v's type with gob under the name gob.Register would
// choose, and records it in concreteTypes.
func register(v any) {
	t := reflect.TypeOf(v)
	name := t.String()
	if t.Name() != "" && t.PkgPath() != "" {
		name = t.PkgPath() + "." + t.Name()
	}
	gob.RegisterName(name, v)
	concreteTypes[name] = t
}

// gob encodes interface-typed fields (spec.Op, spec.Value) only for
// registered concrete types; every operation of the spec catalog and every
// value shape the state objects produce registers here, once, for both
// ends of the connection.
func init() {
	for _, op := range []spec.Op{
		// register
		spec.WriteOp{}, spec.ReadOp{},
		// counter
		spec.IncOp{}, spec.CtrGetOp{},
		// kv
		spec.PutOp{}, spec.GetOp{}, spec.DelOp{}, spec.PutIfAbsentOp{}, spec.CasOp{},
		// list
		spec.AppendOp{}, spec.DuplicateOp{}, spec.ListReadOp{}, spec.GetFirstOp{}, spec.SizeOp{},
		// set
		spec.SetAddOp{}, spec.SetRemoveOp{}, spec.SetContainsOp{}, spec.SetElementsOp{},
		// bank
		spec.DepositOp{}, spec.WithdrawOp{}, spec.BalanceOp{}, spec.TransferOp{},
		// editor
		spec.InsertOp{}, spec.DeleteOp{}, spec.DocReadOp{},
		// meeting
		spec.ReserveOp{}, spec.CancelOp{}, spec.ScheduleOp{},
		// multi-op atomic units: a whole transaction is one op, so it is
		// one envelope — the steps' concrete types are the catalog entries
		// above, already registered.
		txn.Txn{},
	} {
		register(op)
	}
	for _, v := range []spec.Value{
		int(0), int64(0), float64(0), "", false,
		[]spec.Value(nil), map[string]spec.Value(nil),
		[]string(nil), map[string]bool(nil), map[string]int64(nil),
	} {
		register(v)
	}
}
