package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bayou/internal/spec"
	"bayou/internal/stateobj"
)

// This file is the replica half of the checkpoint subsystem: the original
// Bayou bounded its write log by periodically folding the stable prefix into
// a checkpointed database image and truncating the log below it; perf-first
// successors of the paper's model (Creek, the journal ACT formulation)
// likewise assume stable-prefix state transfer rather than full-log replay.
// Here a Checkpoint turns the replica's committed-and-executed prefix into a
// CheckpointRecord — {database image, absolute length, dot summary} — and
// rebases every in-memory structure to the suffix past it. Snapshots become
// {record + committed suffix} and recovery loads the image then executes
// only the suffix: O(Δ) instead of O(history). The same record is the
// payload of TOB state transfer: a peer too far behind to be replayed
// per-slot installs it wholesale (InstallCheckpoint).

// dotRange is a closed interval of event numbers of one replica.
type dotRange struct{ lo, hi int64 }

// DotSet is a compact summary of a set of dots, interval-compressed per
// replica. The committed dots of a checkpointed prefix collapse into a few
// ranges per replica (per-origin event numbers commit mostly contiguously;
// only read-only Algorithm 2 invocations, which are never broadcast, leave
// permanent gaps), so membership for the truncated prefix stays answerable
// in O(log spans) without retaining a per-dot map forever — the dedup sets
// proper shrink to the suffix.
type DotSet struct {
	r map[ReplicaID][]dotRange
}

// Add inserts a dot, merging adjacent ranges.
func (s *DotSet) Add(d Dot) {
	if s.r == nil {
		s.r = make(map[ReplicaID][]dotRange)
	}
	rs := s.r[d.Replica]
	n := d.EventNo
	// Position of the first range with hi >= n-1 (a candidate to absorb n).
	i := sort.Search(len(rs), func(k int) bool { return rs[k].hi >= n-1 })
	if i < len(rs) && rs[i].lo <= n+1 {
		if n >= rs[i].lo && n <= rs[i].hi {
			return // already present
		}
		if n == rs[i].lo-1 {
			rs[i].lo = n
		} else { // n == rs[i].hi+1
			rs[i].hi = n
			if i+1 < len(rs) && rs[i+1].lo == n+1 { // bridge two ranges
				rs[i].hi = rs[i+1].hi
				rs = append(rs[:i+1], rs[i+2:]...)
			}
		}
		s.r[d.Replica] = rs
		return
	}
	rs = append(rs, dotRange{})
	copy(rs[i+1:], rs[i:])
	rs[i] = dotRange{lo: n, hi: n}
	s.r[d.Replica] = rs
}

// Contains reports membership.
func (s *DotSet) Contains(d Dot) bool {
	if s == nil || s.r == nil {
		return false
	}
	rs := s.r[d.Replica]
	i := sort.Search(len(rs), func(k int) bool { return rs[k].hi >= d.EventNo })
	return i < len(rs) && rs[i].lo <= d.EventNo
}

// Empty reports whether the set holds no dots.
func (s *DotSet) Empty() bool {
	if s == nil {
		return true
	}
	for _, rs := range s.r {
		if len(rs) > 0 {
			return false
		}
	}
	return true
}

// Count returns the number of dots summarized.
func (s *DotSet) Count() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for _, rs := range s.r {
		for _, x := range rs {
			n += x.hi - x.lo + 1
		}
	}
	return n
}

// GobEncode flattens the set for the wire (CheckpointRecord rides inside
// state-transfer envelopes, and gob cannot see unexported fields): a varint
// stream of [replica count, then per replica: id, span count, lo/hi pairs],
// with replicas in sorted order so the encoding of equal sets is identical
// byte-for-byte regardless of map iteration order.
func (s *DotSet) GobEncode() ([]byte, error) {
	ids := make([]ReplicaID, 0, len(s.r))
	for id := range s.r {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := binary.AppendVarint(nil, int64(len(ids)))
	for _, id := range ids {
		rs := s.r[id]
		buf = binary.AppendVarint(buf, int64(id))
		buf = binary.AppendVarint(buf, int64(len(rs)))
		for _, x := range rs {
			buf = binary.AppendVarint(buf, x.lo)
			buf = binary.AppendVarint(buf, x.hi)
		}
	}
	return buf, nil
}

// GobDecode rebuilds the set from its GobEncode flattening. The data comes
// off the wire, so a count is checked against the bytes that must follow
// it (two varints per replica and per span) before anything is sized by it.
func (s *DotSet) GobDecode(data []byte) error {
	next := func() (int64, error) {
		v, n := binary.Varint(data)
		if n <= 0 {
			return 0, fmt.Errorf("core: truncated DotSet encoding")
		}
		data = data[n:]
		return v, nil
	}
	count := func() (int64, error) {
		n, err := next()
		if err == nil && (n < 0 || n > int64(len(data)/2)) {
			err = fmt.Errorf("core: DotSet count %d exceeds its encoding", n)
		}
		return n, err
	}
	nReplicas, err := count()
	if err != nil {
		return err
	}
	s.r = nil
	if nReplicas == 0 {
		return nil
	}
	s.r = make(map[ReplicaID][]dotRange, nReplicas)
	for i := int64(0); i < nReplicas; i++ {
		id, err := next()
		if err != nil {
			return err
		}
		nSpans, err := count()
		if err != nil {
			return err
		}
		rs := make([]dotRange, 0, nSpans)
		for j := int64(0); j < nSpans; j++ {
			lo, err := next()
			if err != nil {
				return err
			}
			hi, err := next()
			if err != nil {
				return err
			}
			rs = append(rs, dotRange{lo: lo, hi: hi})
		}
		s.r[ReplicaID(id)] = rs
	}
	return nil
}

// Spans returns the number of intervals held — the set's actual memory
// footprint, which the long-run tests assert stays bounded while Count
// grows with history.
func (s *DotSet) Spans() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, rs := range s.r {
		n += len(rs)
	}
	return n
}

// Clone returns an independent copy.
func (s *DotSet) Clone() DotSet {
	out := DotSet{}
	if s == nil || s.r == nil {
		return out
	}
	out.r = make(map[ReplicaID][]dotRange, len(s.r))
	for id, rs := range s.r {
		out.r[id] = append([]dotRange(nil), rs...)
	}
	return out
}

// String renders the set compactly ("r0:1-5,7 r2:1-3"), for diagnostics.
func (s *DotSet) String() string {
	if s == nil || len(s.r) == 0 {
		return "{}"
	}
	ids := make([]ReplicaID, 0, len(s.r))
	for id := range s.r {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for k, id := range ids {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "r%d:", id)
		for j, x := range s.r[id] {
			if j > 0 {
				b.WriteByte(',')
			}
			if x.lo == x.hi {
				fmt.Fprintf(&b, "%d", x.lo)
			} else {
				fmt.Fprintf(&b, "%d-%d", x.lo, x.hi)
			}
		}
	}
	return b.String()
}

// ParseDot parses the rendering of Dot.String ("r<replica>#<eventNo>").
// Drivers use it to bridge string-keyed broadcast logs (RB message ids) back
// to dots when deciding what a checkpoint lets them drop.
func ParseDot(s string) (Dot, bool) {
	if len(s) < 4 || s[0] != 'r' {
		return Dot{}, false
	}
	hash := strings.IndexByte(s, '#')
	if hash < 1 {
		return Dot{}, false
	}
	rep, err := strconv.ParseInt(s[1:hash], 10, 64)
	if err != nil {
		return Dot{}, false
	}
	ev, err := strconv.ParseInt(s[hash+1:], 10, 64)
	if err != nil {
		return Dot{}, false
	}
	return Dot{Replica: ReplicaID(rep), EventNo: ev}, true
}

// CheckpointRecord is the transferable image of a committed prefix: the
// database after executing exactly the first BaseLen committed requests,
// plus the summary of which dots those were. Records are immutable once
// built — snapshots alias them and state transfer ships them as-is.
type CheckpointRecord struct {
	// BaseLen is the absolute committed length the image covers (commit
	// positions 1..BaseLen, equivalently TOB delivery numbers).
	BaseLen int
	// Image is the register database at BaseLen (spec.Checkpoint form).
	Image map[string]spec.Value
	// Dots summarizes the committed dots inside the prefix; it answers
	// dedup and coverage queries for requests the log no longer holds.
	Dots DotSet
}

// CheckpointStats reports what one Checkpoint call did.
type CheckpointStats struct {
	BaseLen   int // absolute checkpoint anchor after the call
	Truncated int // committed entries cut from the in-memory log by this call
}

// InstallStats reports what one InstallCheckpoint call did.
type InstallStats struct {
	Installed        bool
	RemovedTentative int // tentative entries already inside the image
	Orphaned         int // continuations whose commit position the transfer skipped
}

// absCommitted returns |committed| in absolute positions (the truncated
// prefix counts).
func (p *Replica) absCommitted() int { return p.baseLen + len(p.committed) }

// absExecuted returns the absolute executed length (the truncated prefix is
// executed by construction).
func (p *Replica) absExecuted() int { return p.baseLen + len(p.executed) }

// BaseLen returns the absolute length of the checkpointed prefix (0 until
// the first checkpoint).
func (p *Replica) BaseLen() int { return p.baseLen }

// baseContains reports whether the dot is committed inside the checkpointed
// prefix.
func (p *Replica) baseContains(d Dot) bool {
	return p.base != nil && p.base.Dots.Contains(d)
}

// KnownCommitted reports whether the dot is committed here, inside or past
// the checkpoint. Drivers use it to decide what broadcast-layer logs may
// drop.
func (p *Replica) KnownCommitted(d Dot) bool {
	return p.committedSet[d] || p.baseContains(d)
}

// CheckpointRecord returns the replica's latest checkpoint record and
// whether one exists. The record is immutable: callers may alias it, ship
// it, and store it without copying.
func (p *Replica) CheckpointRecord() (*CheckpointRecord, bool) {
	return p.base, p.base != nil
}

// Stable returns the absolute length of the stable prefix: committed and
// executed, hence never rolled back again — the farthest a checkpoint can
// anchor.
func (p *Replica) Stable() int {
	stable := len(p.executed)
	if len(p.committed) < stable {
		stable = len(p.committed)
	}
	return p.baseLen + stable
}

// Checkpoint anchors a new checkpoint at (up to) absolute commit position
// upTo and truncates every in-memory structure to the suffix past it: the
// committed log, the executed mirror and its trace, the state object's undo
// trace, and the dedup sets (rebuilt right-sized; the truncated dots remain
// answerable through the record's DotSet). upTo is clamped into the legal
// window — at most the stable prefix (committed ∧ executed), at least the
// undo-release watermark below which no image can be rewound — so callers
// may simply pass CommittedLen() for "as far as possible".
//
// All schedule-edit arithmetic ports unchanged: committed and executed share
// one base offset, so in-memory edit positions are exactly the old ones;
// only absolute quantities (CommittedLen, coverage watermarks, response
// witnesses) add the base.
func (p *Replica) Checkpoint(upTo int) (CheckpointStats, error) {
	stats := CheckpointStats{BaseLen: p.baseLen}
	// Clamp into [released, stable], in in-memory units.
	n := upTo - p.baseLen
	if stable := p.Stable() - p.baseLen; n > stable {
		n = stable
	}
	if rel := p.state.ReleasedPrefix(); n < rel {
		n = rel
	}
	if n <= 0 {
		return stats, nil
	}
	// Continuations never reference the stable prefix (a committed-and-
	// executed request has always been answered); a violation here would
	// silently orphan a client, so fail loudly instead.
	for d := range p.awaiting {
		if p.committedSet[d] && p.executedSet[d] {
			return stats, fmt.Errorf("%w: continuation %s inside the stable prefix at checkpoint", ErrInvariant, d)
		}
	}
	img, err := p.state.Checkpoint(n)
	if err != nil {
		return stats, fmt.Errorf("%w: checkpoint image: %v", ErrInvariant, err)
	}
	if err := p.state.Truncate(n); err != nil {
		return stats, fmt.Errorf("%w: truncate state: %v", ErrInvariant, err)
	}

	var dots DotSet
	if p.base != nil {
		dots = p.base.Dots.Clone()
	}
	for _, r := range p.committed[:n] {
		dots.Add(r.Dot)
	}

	// Copy the suffixes down into right-sized arrays (the old backing
	// arrays — and the heavyweight Req/Op payloads they pin — become
	// collectable) and rebuild the dedup sets at suffix size: Go maps never
	// shrink in place, so deleting keys alone would retain peak capacity
	// forever.
	p.committed = append(make([]Req, 0, len(p.committed)-n+8), p.committed[n:]...)
	p.executed = append(make([]Req, 0, len(p.executed)-n+8), p.executed[n:]...)
	p.traceBuf = append(make([]Dot, 0, len(p.traceBuf)-n+8), p.traceBuf[n:]...)
	p.traceAliasedLen = 0 // the fresh mirror array is aliased by nobody
	committedSet := make(map[Dot]bool, len(p.committed)+8)
	for _, r := range p.committed {
		committedSet[r.Dot] = true
	}
	p.committedSet = committedSet
	executedSet := make(map[Dot]bool, len(p.executed)+8)
	for _, r := range p.executed {
		executedSet[r.Dot] = true
	}
	p.executedSet = executedSet

	p.baseLen += n
	p.base = &CheckpointRecord{BaseLen: p.baseLen, Image: img, Dots: dots}
	stats.BaseLen = p.baseLen
	stats.Truncated = n
	return stats, nil
}

// InstallCheckpoint adopts a peer's checkpoint record — TOB state transfer.
// It applies only when the record is ahead of this replica's committed
// knowledge; the replica's own committed log is a prefix of the record's
// coverage (commit order is shared), so the local log, execution state and
// trace are replaced wholesale by the image, and tentative requests already
// inside the image leave the tentative list. Everything still genuinely
// tentative is rescheduled for execution on top of the image.
//
// Continuations whose requests committed inside the skipped range are
// orphaned: their response was never computed here, and the per-slot replay
// that would recompute it is exactly what the transfer replaced. They are
// completed as lost results (Effects.Lost) — the operation took effect and
// is inside the image; only its return value is unrecoverable. This mirrors
// the original Bayou's truncation trade-off: a server that discards its
// write log below the omitted vector can no longer answer for the discarded
// writes individually.
func (p *Replica) InstallCheckpoint(rec *CheckpointRecord, eff *Effects) (InstallStats, error) {
	var stats InstallStats
	if rec == nil || rec.BaseLen <= p.absCommitted() {
		return stats, nil
	}
	p.state = stateobj.FromImage(rec.Image)

	// Tentative requests the image already contains are committed below the
	// new base: remove them (their effects are in the image; re-executing
	// them would double-apply).
	keep := p.tentative[:0]
	for _, r := range p.tentative {
		if rec.Dots.Contains(r.Dot) {
			delete(p.tentativeSet, r.Dot)
			stats.RemovedTentative++
		} else {
			keep = append(keep, r)
		}
	}
	for i := len(keep); i < len(p.tentative); i++ {
		p.tentative[i] = Req{}
	}
	p.tentative = keep

	// Orphaned continuations: committed inside the transferred prefix, value
	// unrecoverable. Their sessions are released with a lost-result notice —
	// emitted in dot order, not map order, so the notice stream (and every
	// recorder artifact downstream of it) is identical across runs of the
	// same seed.
	for _, awaiting := range []map[Dot]*pendingResp{p.awaiting, p.awaitStable} {
		var orphaned []Dot
		for d := range awaiting {
			if rec.Dots.Contains(d) {
				orphaned = append(orphaned, d)
			}
		}
		sort.Slice(orphaned, func(i, j int) bool { return orphaned[i].less(orphaned[j]) })
		for _, d := range orphaned {
			eff.Lost = append(eff.Lost, LostResponse{Dot: d, Session: awaiting[d].session})
			delete(awaiting, d)
			stats.Orphaned++
		}
	}

	// The whole schedule restarts from the image: nothing is executed, every
	// surviving tentative request is (re-)planned on top of it.
	p.committed = nil
	p.executed = nil
	p.traceBuf = nil
	p.traceAliasedLen = 0
	p.committedSet = make(map[Dot]bool, 8)
	p.executedSet = make(map[Dot]bool, len(p.tentative)+8)
	p.toBeRolledBack = nil
	p.tbeBuf = append(p.tbeBuf[:0], p.tentative...)
	p.tbeHead = 0
	p.tbeSpare = p.tbeSpare[:0]

	p.baseLen = rec.BaseLen
	p.base = rec
	stats.Installed = true
	return stats, nil
}

// Footprint reports the sizes of the structures log truncation bounds — the
// observability the long-run memory tests assert against.
type Footprint struct {
	BaseLen         int // absolute checkpointed prefix length
	CommittedSuffix int // resident committed log entries
	ExecutedSuffix  int // resident executed mirror entries
	CommittedSet    int // dedup map entries
	ExecutedSet     int // dedup map entries
	UndoTrace       int // state-object trace entries resident
	LiveUndo        int // of those, entries still holding undo data
	BaseSpans       int // intervals in the checkpoint dot summary
}

// Footprint returns the replica's current memory-shape counters.
func (p *Replica) Footprint() Footprint {
	f := Footprint{
		BaseLen:         p.baseLen,
		CommittedSuffix: len(p.committed),
		ExecutedSuffix:  len(p.executed),
		CommittedSet:    len(p.committedSet),
		ExecutedSet:     len(p.executedSet),
		UndoTrace:       p.state.Depth(),
		LiveUndo:        p.state.LiveUndoEntries(),
	}
	if p.base != nil {
		f.BaseSpans = p.base.Dots.Spans()
	}
	return f
}
