package wire

import (
	"net"
	"testing"
	"time"

	"bayou/internal/core"
	"bayou/internal/spec"
)

// TestFrameRoundTrip sends a representative envelope — a request batch with
// interface-typed operations and a checkpoint image with an
// interval-compressed dot summary — through the framed codec and asserts
// it survives bit-exact.
func TestFrameRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	a, b := Wrap(client), Wrap(server)
	defer a.Close()
	defer b.Close()

	var dots core.DotSet
	dots.Add(core.Dot{Replica: 0, EventNo: 1})
	dots.Add(core.Dot{Replica: 0, EventNo: 2})
	dots.Add(core.Dot{Replica: 2, EventNo: 7})
	out := Envelope{
		Kind:     KindCommitBatch,
		CommitNo: 41,
		From:     2,
		Reqs: []core.Req{
			{Timestamp: 9, Dot: core.Dot{Replica: 1, EventNo: 3}, Op: spec.Inc("hits", 2)},
			{Timestamp: 11, Dot: core.Dot{Replica: 2, EventNo: 4}, Strong: true, Op: spec.PutIfAbsent("k", "v")},
		},
		Ckpt: &core.CheckpointRecord{
			BaseLen: 40,
			Image:   map[string]spec.Value{"hits": int64(12), "doc": "abc"},
			Dots:    dots,
		},
	}
	go func() {
		if err := a.Send(&out); err != nil {
			t.Error(err)
		}
	}()
	var in Envelope
	if err := b.Recv(&in); err != nil {
		t.Fatal(err)
	}
	if in.Kind != out.Kind || in.CommitNo != 41 || in.From != 2 || len(in.Reqs) != 2 {
		t.Fatalf("header mangled: %+v", in)
	}
	if in.Reqs[0].Op.Name() != spec.Inc("hits", 2).Name() || !in.Reqs[1].Strong {
		t.Fatalf("request batch mangled: %+v", in.Reqs)
	}
	if in.Ckpt == nil || in.Ckpt.BaseLen != 40 || in.Ckpt.Image["hits"] != int64(12) {
		t.Fatalf("checkpoint mangled: %+v", in.Ckpt)
	}
	for _, d := range []core.Dot{{Replica: 0, EventNo: 1}, {Replica: 0, EventNo: 2}, {Replica: 2, EventNo: 7}} {
		if !in.Ckpt.Dots.Contains(d) {
			t.Fatalf("dot summary lost %v", d)
		}
	}
	if in.Ckpt.Dots.Contains(core.Dot{Replica: 1, EventNo: 1}) {
		t.Fatal("dot summary gained a phantom dot")
	}
}

// TestLinkDialsThroughBackoff starts a Send before the listener exists:
// the link must keep re-dialing and deliver once the peer comes up — the
// arbitrary-start-order case of a multi-process deployment.
func TestLinkDialsThroughBackoff(t *testing.T) {
	// Reserve an address, then close it so the first dials fail.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	link := NewLink(addr, Envelope{Kind: KindHello, From: 1})
	defer link.Close()
	sent := make(chan error, 1)
	go func() { sent <- link.Send(&Envelope{Kind: KindResync, CommitNo: 5}) }()

	time.Sleep(50 * time.Millisecond) // let a few dial attempts fail
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	c, err := l2.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn := Wrap(c)
	defer conn.Close()
	var hello, body Envelope
	if err := conn.Recv(&hello); err != nil {
		t.Fatal(err)
	}
	if hello.Kind != KindHello || hello.From != 1 {
		t.Fatalf("expected hello first, got %+v", hello)
	}
	if err := conn.Recv(&body); err != nil {
		t.Fatal(err)
	}
	if body.Kind != KindResync || body.CommitNo != 5 {
		t.Fatalf("frame mangled: %+v", body)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}
