package livenet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"bayou/internal/core"
	"bayou/internal/spec"
	"bayou/internal/store"
)

// durableNode hosts replica 0 of a one-replica deployment on a data dir
// without a goroutine, listener or links, so a test runs the bursts itself
// and can look at the node between them.
func durableNode(t *testing.T, dir string, ckptEvery int) *remoteNode {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	r := &remoteNode{
		cfg:      NodeConfig{ID: 0, Addrs: []string{"unused"}, DataDir: dir},
		quit:     make(chan struct{}),
		failed:   make(chan struct{}),
		cells:    make([]int, 1),
		down:     make([]bool, 1),
		outbound: make(map[string]core.Req),
		st:       st,
	}
	r.nd = newNode(0, 1, core.NoCircularCausality, r, func() int64 { return r.clock.Add(1) }, false, ckptEvery)
	return r
}

// burst processes msgs as one inbox burst, closing it the way node.run
// does, and checks every invocation was accepted.
func burst(t *testing.T, r *remoteNode, msgs ...message) {
	t.Helper()
	n := r.nd
	for _, m := range msgs {
		n.process(m)
	}
	n.flushRB()
	n.flushFwd()
	n.settleLocal()
	n.h.endBurst()
	for _, m := range msgs {
		if err := <-m.reply; err != nil {
			t.Fatalf("invoke on session %d: %v", m.inv.Session, err)
		}
	}
}

func invokeMsg(sess int, op spec.Op, strong bool) message {
	level := core.Weak
	if strong {
		level = core.Strong
	}
	return message{kind: msgInvoke, inv: core.Invocation{Session: core.SessionID(sess), Op: op, Level: level}, reply: make(chan error, 1)}
}

// TestReplayMatchesPersistedImage drives a durable sequencer through bursts
// of weak and strong invocations that cross several checkpoints (each one
// trimming the sequencer's commit log and starting a segment), with a
// parked invocation and a controller acking part of the event journal now
// and then. Every burst appends exactly one record, and after each one the
// image replayed from the log (the boot path) must equal, field by field,
// the image persist built from the node at that point.
func TestReplayMatchesPersistedImage(t *testing.T) {
	dir := t.TempDir()
	r := durableNode(t, dir, 4)
	n := r.nd
	parked := invokeMsg(9, spec.Inc("parked", 1), false)
	parked.inv.Read = core.Vec{Frontier: []core.Dot{{Replica: 1, EventNo: 99}}} // never covered
	burst(t, r, parked)

	segments := map[int64]bool{}
	trims := 0
	for i := 0; i < 40; i++ {
		var msgs []message
		for sess := 0; sess <= i%3; sess++ {
			msgs = append(msgs, invokeMsg(sess, spec.Inc("ctr", 1), (i+sess)%4 == 0))
		}
		logBase := n.logBase
		burst(t, r, msgs...)
		if n.logBase != logBase {
			trims++
		}
		if got, want := r.saves.Load(), int64(i+2); got != want {
			t.Fatalf("burst %d: %d log records, want %d (one per burst)", i, got, want)
		}
		_, got, gen, ok, err := loadImage(dir)
		if err != nil || !ok {
			t.Fatalf("burst %d: replay ok=%v err=%v", i, ok, err)
		}
		segments[gen] = true
		for _, d := range diffImages(t, got, r.image(n)) {
			t.Errorf("burst %d (segment %d): %s", i, gen, d)
		}
		if t.Failed() {
			t.FailNow()
		}
		if i%5 == 4 {
			r.ackEvents(r.evBase + int64(len(r.evLog))/2) // the controller applied half the journal
		}
	}
	if len(segments) < 3 || trims < 1 {
		t.Fatalf("the run crossed %d segments and %d commit-log trims, want ≥ 3 and ≥ 1", len(segments), trims)
	}
	if len(r.evLog) == 0 || r.evBase == 0 || len(n.parked) != 1 {
		t.Fatalf("the run never exercised the journal trim or the parked list (evBase %d, journal %d, parked %d)", r.evBase, len(r.evLog), len(n.parked))
	}
}

// diffImages compares got with want, field by field (the snapshot's fields
// one by one), after passing want through gob the way the log does; nil
// and empty slices and maps count as equal.
func diffImages(t *testing.T, got, want NodeImage) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	want = NodeImage{}
	if err := gob.NewDecoder(&buf).Decode(&want); err != nil {
		t.Fatal(err)
	}
	var diffs []string
	var walk func(path string, g, w reflect.Value)
	walk = func(path string, g, w reflect.Value) {
		if g.Kind() == reflect.Struct && g.Type() == reflect.TypeFor[core.Snapshot]() || g.Type() == reflect.TypeFor[NodeImage]() {
			for i := 0; i < g.NumField(); i++ {
				walk(path+"."+g.Type().Field(i).Name, g.Field(i), w.Field(i))
			}
			return
		}
		empty := func(v reflect.Value) bool {
			return (v.Kind() == reflect.Slice || v.Kind() == reflect.Map) && v.Len() == 0
		}
		if !(empty(g) && empty(w)) && !reflect.DeepEqual(g.Interface(), w.Interface()) {
			diffs = append(diffs, fmt.Sprintf("%s: replayed %+v, persisted %+v", path, g.Interface(), w.Interface()))
		}
	}
	walk("NodeImage", reflect.ValueOf(got), reflect.ValueOf(want))
	return diffs
}
