package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"bayou/internal/spec"
)

func TestDotSet(t *testing.T) {
	var s DotSet
	if !s.Empty() || s.Contains(Dot{Replica: 1, EventNo: 1}) {
		t.Fatal("zero DotSet not empty")
	}
	// Out-of-order inserts must merge into contiguous ranges.
	for _, ev := range []int64{5, 1, 3, 2, 4, 9, 7, 8} {
		s.Add(Dot{Replica: 0, EventNo: ev})
	}
	s.Add(Dot{Replica: 2, EventNo: 1})
	for _, ev := range []int64{1, 2, 3, 4, 5, 7, 8, 9} {
		if !s.Contains(Dot{Replica: 0, EventNo: ev}) {
			t.Fatalf("missing r0#%d", ev)
		}
	}
	for _, ev := range []int64{0, 6, 10} {
		if s.Contains(Dot{Replica: 0, EventNo: ev}) {
			t.Fatalf("phantom r0#%d", ev)
		}
	}
	if s.Contains(Dot{Replica: 1, EventNo: 1}) || !s.Contains(Dot{Replica: 2, EventNo: 1}) {
		t.Fatal("replica confusion")
	}
	if got := s.Spans(); got != 3 {
		t.Fatalf("spans = %d (%s), want 3 (1-5, 7-9, r2:1)", got, s.String())
	}
	if got := s.Count(); got != 9 {
		t.Fatalf("count = %d, want 9", got)
	}
	// Bridging the gap collapses the spans.
	s.Add(Dot{Replica: 0, EventNo: 6})
	if got := s.Spans(); got != 2 {
		t.Fatalf("spans after bridge = %d (%s), want 2", got, s.String())
	}
	clone := s.Clone()
	clone.Add(Dot{Replica: 0, EventNo: 100})
	if s.Contains(Dot{Replica: 0, EventNo: 100}) {
		t.Fatal("clone shares storage with original")
	}
	// Idempotent re-add.
	before := s.Count()
	s.Add(Dot{Replica: 0, EventNo: 3})
	if s.Count() != before {
		t.Fatal("re-add changed count")
	}
}

// A DotSet's wire form comes from a peer: a count larger than the bytes
// behind it (or negative) is an error, not an allocation sized by it or a
// makeslice panic.
func TestDotSetGobDecodeBoundsCounts(t *testing.T) {
	var s DotSet
	s.Add(Dot{Replica: 1, EventNo: 4})
	s.Add(Dot{Replica: 3, EventNo: 9})
	enc, err := s.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back DotSet
	if err := back.GobDecode(enc); err != nil || back.String() != s.String() {
		t.Fatalf("round trip = %s, %v; want %s", back.String(), err, s.String())
	}
	for name, data := range map[string][]byte{
		"replicas":       binary.AppendVarint(nil, 1<<40),
		"negative":       binary.AppendVarint(nil, -3),
		"spans":          binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(nil, 1), 0), 1<<40),
		"negative spans": binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(nil, 1), 0), -1),
	} {
		if err := new(DotSet).GobDecode(data); err == nil {
			t.Errorf("%s: decoded % x without error", name, data)
		}
	}
}

func TestParseDot(t *testing.T) {
	for _, d := range []Dot{{Replica: 0, EventNo: 1}, {Replica: 12, EventNo: 34567}} {
		got, ok := ParseDot(d.String())
		if !ok || got != d {
			t.Fatalf("ParseDot(%q) = %v, %v", d.String(), got, ok)
		}
	}
	for _, bad := range []string{"", "r1", "x1#2", "r#2", "r1#", "r1#x"} {
		if _, ok := ParseDot(bad); ok {
			t.Fatalf("ParseDot(%q) accepted", bad)
		}
	}
}

// commitAll invokes a weak updating op on the replica, commits and drains it.
func commitOne(t *testing.T, r *Replica, reg string) {
	t.Helper()
	eff, err := r.Invoke(spec.Inc(reg, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range eff.TOBCast {
		if _, err := r.TOBDeliver(req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointTruncatesAndRestores covers the basic cycle: checkpoint,
// keep running, snapshot, restore — the restored replica must agree with a
// never-checkpointed twin on state and absolute positions.
func TestCheckpointTruncatesAndRestores(t *testing.T) {
	r := NewReplica(0, NoCircularCausality, func() int64 { return 0 })
	for i := 0; i < 40; i++ {
		commitOne(t, r, "c")
	}
	stats, err := r.Checkpoint(30)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BaseLen != 30 || stats.Truncated != 30 {
		t.Fatalf("stats = %+v, want base 30, truncated 30", stats)
	}
	if len(r.committed) != 10 || r.CommittedLen() != 40 {
		t.Fatalf("suffix %d abs %d, want 10/40", len(r.committed), r.CommittedLen())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		commitOne(t, r, "c")
	}
	if got := r.Read("c"); !spec.Equal(got, int64(45)) {
		t.Fatalf("register = %v, want 45", got)
	}

	snap := r.Snapshot()
	if len(snap.Committed) != 15 || snap.CommittedLen() != 45 {
		t.Fatalf("snapshot suffix %d abs %d, want 15/45", len(snap.Committed), snap.CommittedLen())
	}
	var eff Effects
	restored, err := RestoreReplica(snap, func() int64 { return 0 }, false, &eff)
	if err != nil {
		t.Fatal(err)
	}
	if restored.CommittedLen() != 45 || restored.BaseLen() != 30 {
		t.Fatalf("restored abs %d base %d, want 45/30", restored.CommittedLen(), restored.BaseLen())
	}
	if got := restored.Read("c"); !spec.Equal(got, int64(45)) {
		t.Fatalf("restored register = %v, want 45", got)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A second checkpoint on the restored replica keeps working.
	if _, err := restored.Checkpoint(restored.CommittedLen()); err != nil {
		t.Fatal(err)
	}
	if restored.BaseLen() != 45 || len(restored.committed) != 0 {
		t.Fatalf("re-checkpoint base %d suffix %d", restored.BaseLen(), len(restored.committed))
	}
}

// TestInstallCheckpoint covers state transfer: a behind replica adopts a
// peer's record, deduplicates tentative requests the image contains, keeps
// genuinely tentative ones scheduled, and orphans continuations the skipped
// replay would have answered.
func TestInstallCheckpoint(t *testing.T) {
	clock := int64(0)
	tick := func() int64 { clock++; return clock }
	a := NewReplica(0, NoCircularCausality, tick)
	b := NewReplica(1, NoCircularCausality, tick)

	// a commits 20 ops; b sees (RB) only the first 5 of them, plus issues
	// one strong op of its own that a also commits — b's continuation.
	var commits []Req
	for i := 0; i < 20; i++ {
		eff, err := a.Invoke(spec.Inc("c", 1), false)
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, eff.TOBCast...)
	}
	var beff Effects
	strongReq, err := b.InvokeFrom(7, spec.Inc("s", 1), true, &beff)
	if err != nil {
		t.Fatal(err)
	}
	commits = append(commits, beff.TOBCast...)
	for i, req := range commits {
		if _, err := a.TOBDeliver(req); err != nil {
			t.Fatal(err)
		}
		if i < 5 {
			if _, err := b.RBDeliver(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Checkpoint(a.CommittedLen()); err != nil {
		t.Fatal(err)
	}
	rec, ok := a.CheckpointRecord()
	if !ok || rec.BaseLen != 21 {
		t.Fatalf("record %v %v, want base 21", rec, ok)
	}

	var eff Effects
	stats, err := b.InstallCheckpoint(rec, &eff)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Installed || stats.RemovedTentative != 5 {
		t.Fatalf("stats = %+v, want installed with 5 tentative removed", stats)
	}
	if stats.Orphaned != 1 || len(eff.Lost) != 1 || eff.Lost[0].Dot != strongReq.Dot || eff.Lost[0].Session != 7 {
		t.Fatalf("orphan = %+v / %+v, want b's strong continuation", stats, eff.Lost)
	}
	if b.CommittedLen() != 21 || b.BaseLen() != 21 {
		t.Fatalf("b abs %d base %d, want 21/21", b.CommittedLen(), b.BaseLen())
	}
	if _, err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := b.Read("c"); !spec.Equal(got, int64(20)) {
		t.Fatalf("b register c = %v, want 20", got)
	}
	if got := b.Read("s"); !spec.Equal(got, int64(1)) {
		t.Fatalf("b register s = %v, want 1 (strong op inside the image)", got)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Re-install of the same record is a no-op.
	if stats, err := b.InstallCheckpoint(rec, &eff); err != nil || stats.Installed {
		t.Fatalf("re-install = %+v, %v", stats, err)
	}
	// An RB replay of a truncated request must be dropped, not rescheduled.
	if _, err := b.RBDeliver(commits[0]); err != nil {
		t.Fatal(err)
	}
	if len(b.tentative) != 0 {
		t.Fatal("truncated request re-entered the tentative list")
	}
}

// TestCheckpointLongRunBoundedMemory is the shrink-on-truncate assertion:
// under a steady committed load with a periodic checkpoint cadence, every
// history-proportional structure must stay bounded by the window — the
// resident logs, the dedup sets, the undo trace, live undo entries, and the
// base summary's interval count.
func TestCheckpointLongRunBoundedMemory(t *testing.T) {
	const (
		total  = 10_000
		window = 128
	)
	r := NewReplica(0, NoCircularCausality, func() int64 { return 0 })
	for i := 0; i < total; i++ {
		commitOne(t, r, fmt.Sprintf("reg%d", i%8))
		if r.CommittedLen()-r.BaseLen() >= window {
			if _, err := r.Checkpoint(r.CommittedLen()); err != nil {
				t.Fatal(err)
			}
		}
	}
	f := r.Footprint()
	if f.BaseLen < total-window {
		t.Fatalf("base %d, want ≥ %d", f.BaseLen, total-window)
	}
	bound := window + 8
	if f.CommittedSuffix > bound || f.ExecutedSuffix > bound {
		t.Fatalf("resident logs %d/%d, want ≤ %d", f.CommittedSuffix, f.ExecutedSuffix, bound)
	}
	if f.CommittedSet > bound || f.ExecutedSet > bound {
		t.Fatalf("dedup sets %d/%d, want ≤ %d", f.CommittedSet, f.ExecutedSet, bound)
	}
	if f.UndoTrace > bound || f.LiveUndo > bound {
		t.Fatalf("undo trace %d live %d, want ≤ %d", f.UndoTrace, f.LiveUndo, bound)
	}
	// Every minted dot commits in this workload, so the summary must stay a
	// handful of intervals no matter how long the run.
	if f.BaseSpans > 4 {
		t.Fatalf("base summary fragmented into %d spans", f.BaseSpans)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := r.Read("reg0"); !spec.Equal(got, int64(total/8)) {
		t.Fatalf("reg0 = %v, want %d", got, total/8)
	}
}

// diffTwin compares the checkpointing replica against its full-history twin:
// same absolute positions, same suffix contents, same registers.
func diffTwin(t *testing.T, step int, chk, twin *Replica) {
	t.Helper()
	if chk.CommittedLen() != twin.CommittedLen() {
		t.Fatalf("step %d: abs committed %d vs twin %d", step, chk.CommittedLen(), twin.CommittedLen())
	}
	base := chk.BaseLen()
	for i, r := range chk.committed {
		if twin.committed[base+i].Dot != r.Dot {
			t.Fatalf("step %d: committed[%d] = %s, twin %s", step, base+i, r.ID(), twin.committed[base+i].ID())
		}
	}
	if chk.absExecuted() != len(twin.executed) {
		t.Fatalf("step %d: abs executed %d vs twin %d", step, chk.absExecuted(), len(twin.executed))
	}
	for i, r := range chk.executed {
		if twin.executed[base+i].Dot != r.Dot {
			t.Fatalf("step %d: executed[%d] = %s, twin %s", step, base+i, r.ID(), twin.executed[base+i].ID())
		}
	}
	if len(chk.tentative) != len(twin.tentative) {
		t.Fatalf("step %d: tentative %d vs twin %d", step, len(chk.tentative), len(twin.tentative))
	}
	for i := range chk.tentative {
		if chk.tentative[i].Dot != twin.tentative[i].Dot {
			t.Fatalf("step %d: tentative[%d] diverges", step, i)
		}
	}
	if err := chk.CheckInvariants(); err != nil {
		t.Fatalf("step %d: chk: %v", step, err)
	}
	if err := twin.CheckInvariants(); err != nil {
		t.Fatalf("step %d: twin: %v", step, err)
	}
}

// diffResponses asserts the two replicas produced equivalent effects: equal
// responses (value, committed flag, absolute committed length) and equal
// absolute traces, with the checkpointing replica's trace reconstructed from
// its TraceBase against the twin's full committed order.
func diffResponses(t *testing.T, step int, chkEff, twinEff *Effects, twin *Replica) {
	t.Helper()
	check := func(kind string, a, b []Response) {
		if len(a) != len(b) {
			t.Fatalf("step %d: %s count %d vs twin %d", step, kind, len(a), len(b))
		}
		for i := range a {
			ar, br := a[i], b[i]
			if ar.Req.Dot != br.Req.Dot || ar.Committed != br.Committed || !spec.Equal(ar.Value, br.Value) {
				t.Fatalf("step %d: %s[%d] diverges: %+v vs %+v", step, kind, i, ar, br)
			}
			if ar.CommittedLen != br.CommittedLen {
				t.Fatalf("step %d: %s[%d] CommittedLen %d vs twin %d", step, kind, i, ar.CommittedLen, br.CommittedLen)
			}
			if br.TraceBase != 0 {
				t.Fatalf("step %d: twin emitted a truncated trace", step)
			}
			// Reconstruct chk's absolute trace: commit order 1..TraceBase,
			// then the explicit suffix.
			if ar.TraceBase+len(ar.Trace) != len(br.Trace) {
				t.Fatalf("step %d: %s[%d] trace length %d+%d vs twin %d", step, kind, i, ar.TraceBase, len(ar.Trace), len(br.Trace))
			}
			for j := 0; j < ar.TraceBase; j++ {
				if br.Trace[j] != twin.committed[j].Dot {
					t.Fatalf("step %d: %s[%d] implicit trace prefix [%d] mismatch", step, kind, i, j)
				}
			}
			for j, d := range ar.Trace {
				if br.Trace[ar.TraceBase+j] != d {
					t.Fatalf("step %d: %s[%d] trace suffix [%d] = %s, twin %s", step, kind, i, j, d, br.Trace[ar.TraceBase+j])
				}
			}
		}
	}
	check("responses", chkEff.Responses, twinEff.Responses)
	check("stable", chkEff.StableNotices, twinEff.StableNotices)
}

// TestCheckpointMatchesFullHistoryTwin is the differential property test of
// the checkpoint subsystem: a checkpointing replica driven lock-step against
// a never-checkpointing twin over randomized invoke / RB-deliver / commit /
// step / compact / crash–recover schedules must produce identical executed
// orders, responses, traces (reconstructed over the base) and registers —
// checkpointing is a pure representation change.
func TestCheckpointMatchesFullHistoryTwin(t *testing.T) {
	const base = 1792039697446861202
	for run := 0; run < 6; run++ {
		seed := base + int64(run)*104729
		for _, variant := range []Variant{Original, NoCircularCausality} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, variant), func(t *testing.T) {
				diffCheckpointRun(t, seed, variant)
			})
		}
	}
}

func diffCheckpointRun(t *testing.T, seed int64, variant Variant) {
	rng := rand.New(rand.NewSource(seed))
	clock := int64(0)
	chk := NewReplica(0, variant, func() int64 { return clock })
	twin := NewReplica(0, variant, func() int64 { return clock })

	var tobQueue []Req
	remoteEvent := int64(0)
	registers := []string{"a", "b", "c"}

	apply := func(fn func(r *Replica, eff *Effects) error) (*Effects, *Effects) {
		var ce, te Effects
		if err := fn(chk, &ce); err != nil {
			t.Fatalf("chk: %v", err)
		}
		if err := fn(twin, &te); err != nil {
			t.Fatalf("twin: %v", err)
		}
		return &ce, &te
	}

	const transitions = 300
	for i := 0; i < transitions; i++ {
		clock += int64(rng.Intn(9))
		switch rng.Intn(12) {
		case 0, 1: // local invoke
			strong := rng.Intn(4) == 0
			op := spec.Op(spec.Inc(registers[rng.Intn(len(registers))], int64(1+rng.Intn(3))))
			if rng.Intn(4) == 0 {
				op = spec.ListRead()
			}
			var minted Req
			ce, te := apply(func(r *Replica, eff *Effects) error {
				req, err := r.InvokeInto(op, strong, eff)
				minted = req
				return err
			})
			if len(ce.TOBCast) > 0 {
				tobQueue = append(tobQueue, minted)
			}
			diffResponses(t, i, ce, te, twin)
		case 2, 3, 4: // remote RB delivery (sometimes a duplicate)
			var r Req
			if rng.Intn(5) == 0 && len(tobQueue) > 0 {
				r = tobQueue[rng.Intn(len(tobQueue))]
			} else {
				remoteEvent++
				r = Req{
					Timestamp: clock - int64(rng.Intn(30)),
					Dot:       Dot{Replica: ReplicaID(1 + rng.Intn(2)), EventNo: remoteEvent},
					Op:        spec.Inc(registers[rng.Intn(len(registers))], 1),
				}
				tobQueue = append(tobQueue, r)
			}
			ce, te := apply(func(rep *Replica, eff *Effects) error { return rep.RBDeliverInto(r, eff) })
			diffResponses(t, i, ce, te, twin)
		case 5, 6: // TOB delivery, sometimes out of cast order
			if len(tobQueue) == 0 {
				continue
			}
			k := 0
			if rng.Intn(3) == 0 {
				k = rng.Intn(len(tobQueue))
			}
			r := tobQueue[k]
			tobQueue = append(tobQueue[:k], tobQueue[k+1:]...)
			ce, te := apply(func(rep *Replica, eff *Effects) error { return rep.TOBDeliverInto(r, eff) })
			diffResponses(t, i, ce, te, twin)
		case 7, 8: // lock-step internal work
			n := 1 + rng.Intn(4)
			ce, te := apply(func(rep *Replica, eff *Effects) error {
				_, err := rep.StepN(n, eff)
				return err
			})
			diffResponses(t, i, ce, te, twin)
		case 9: // checkpoint the subject (the twin never does)
			upTo := chk.BaseLen() + rng.Intn(chk.CommittedLen()-chk.BaseLen()+1)
			if _, err := chk.Checkpoint(upTo); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		case 10: // compact both (undo release below the stable prefix)
			chk.Compact()
			twin.Compact()
		default: // crash–recover both from their snapshots
			ce, te := &Effects{}, &Effects{}
			var err error
			chk, err = RestoreReplica(chk.Snapshot(), func() int64 { return clock }, false, ce)
			if err != nil {
				t.Fatalf("restore chk: %v", err)
			}
			twin, err = RestoreReplica(twin.Snapshot(), func() int64 { return clock }, false, te)
			if err != nil {
				t.Fatalf("restore twin: %v", err)
			}
			diffResponses(t, i, ce, te, twin)
			// The crash dropped the volatile tentative schedule on both;
			// re-teach both the not-yet-committed queue, as resync would.
			for _, r := range tobQueue {
				ce, te := apply(func(rep *Replica, eff *Effects) error { return rep.RBDeliverInto(r, eff) })
				diffResponses(t, i, ce, te, twin)
			}
		}
		diffTwin(t, i, chk, twin)
	}
	// Settle both and compare the final registers.
	apply(func(rep *Replica, eff *Effects) error {
		_, err := rep.DrainInto(eff)
		return err
	})
	for _, reg := range registers {
		if !spec.Equal(chk.Read(reg), twin.Read(reg)) {
			t.Fatalf("register %q: %v vs twin %v", reg, chk.Read(reg), twin.Read(reg))
		}
	}
}
