package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bayou/internal/core"
	"bayou/internal/spec"
)

// invokeEnvelope is the bench wire probe's invoke shape: a weak Inc with
// the RPC header fields a controller stamps.
func invokeEnvelope() Envelope {
	return Envelope{Kind: KindInvoke, Seq: 7, Clock: 1 << 20, AckEv: 1 << 10, Sess: 4, Op: spec.Inc("hits", 1)}
}

// countingConn counts the bytes written through it.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// roundTrip sends env from a to b over a synchronous pipe, checks it
// arrives unchanged, and returns the bytes the send wrote.
func roundTrip(t *testing.T, a, b *Conn, cc *countingConn, env *Envelope) int64 {
	t.Helper()
	before := cc.n.Load()
	sent := make(chan error, 1)
	go func() { sent <- a.Send(env) }()
	var got Envelope
	if err := b.Recv(&got); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, *env) {
		t.Fatalf("frame mangled: got %+v, want %+v", got, *env)
	}
	return cc.n.Load() - before
}

// One Conn is one gob stream: the first invoke frame carries the type
// descriptors, an identical second one only the value.
func TestStreamSendsDescriptorsOnce(t *testing.T) {
	client, server := net.Pipe()
	cc := &countingConn{Conn: client}
	a, b := Wrap(cc), Wrap(server)
	defer a.Close()
	defer b.Close()
	inv := invokeEnvelope()
	first := roundTrip(t, a, b, cc, &inv)
	second := roundTrip(t, a, b, cc, &inv)
	t.Logf("invoke frames: %d bytes, then %d", first, second)
	if first < 1000 || second > 200 {
		t.Fatalf("invoke frames of %d then %d bytes; want the descriptors (≥ 1000) once, then ≤ 200", first, second)
	}
	inv.Op = spec.Inc("other", 2)
	if third := roundTrip(t, a, b, cc, &inv); third > 200 {
		t.Fatalf("a third invoke frame took %d bytes", third)
	}
}

// Every frame shape the transport sends — including a transaction, whose
// nested ops introduce their types inside the outer op's encoding — passes
// the guard and decodes exactly, both as the frame that introduces its
// types and as a repeat.
func TestStreamCarriesEveryShape(t *testing.T) {
	client, server := net.Pipe()
	cc := &countingConn{Conn: client}
	a, b := Wrap(cc), Wrap(server)
	defer a.Close()
	defer b.Close()
	for _, env := range fuzzShapes() {
		roundTrip(t, a, b, cc, env)
		roundTrip(t, a, b, cc, env)
	}
}

// A batch whose first request introduces its op's type makes gob flush the
// message right after the type's definition, a few dozen bytes after the
// batch's length, and carry the rest of the batch in the next message. The
// guard must count the batch against the whole body, not that first
// message: a fresh connection carrying this frame once rejected it, on
// every redial.
func TestStreamLongBatchIntroducingAType(t *testing.T) {
	client, server := net.Pipe()
	cc := &countingConn{Conn: client}
	a, b := Wrap(cc), Wrap(server)
	defer a.Close()
	defer b.Close()
	reqs := make([]core.Req, 200)
	for i := range reqs {
		reqs[i] = core.Req{Timestamp: int64(i + 1), Dot: core.Dot{Replica: 1, EventNo: int64(i)}, Op: spec.Inc("k", 1)}
	}
	roundTrip(t, a, b, cc, &Envelope{Kind: KindRBDeliver, From: 1, Reqs: reqs})
}

// Steady-state Send+Recv of the invoke shape allocates a bounded handful:
// no encoder, decoder or type descriptors per frame.
func TestStreamSteadyStateAllocs(t *testing.T) {
	client, server := net.Pipe()
	a, b := Wrap(client), Wrap(server)
	defer a.Close()
	defer b.Close()
	inv := invokeEnvelope()
	next := make(chan struct{})
	defer close(next)
	go func() {
		for range next {
			if a.Send(&inv) != nil {
				return
			}
		}
	}()
	var got Envelope
	recvOne := func() {
		next <- struct{}{}
		if err := b.Recv(&got); err != nil {
			t.Fatal(err)
		}
	}
	recvOne() // descriptors, decoder engines
	allocs := testing.AllocsPerRun(200, recvOne)
	t.Logf("Send+Recv of an invoke frame: %.1f allocations", allocs)
	if allocs > 40 {
		t.Fatalf("Send+Recv of an invoke frame: %.1f allocations, want ≤ 40", allocs)
	}
	if !reflect.DeepEqual(got, inv) {
		t.Fatalf("frame mangled: %+v", got)
	}
}

// An injector fault on the first frame that introduces a type — the frame
// dropped, duplicated, held behind the next, bit-flipped or truncated —
// can cost the connection but never yields a wrong envelope: every Recv
// returns an envelope that was sent, or an error, and the stream stops at
// the first error.
func TestStreamFaultsNeverMisdecode(t *testing.T) {
	sent := []Envelope{
		{Kind: KindHello, From: 1},
		{Kind: KindInvoke, Sess: 1, Op: spec.Inc("a", 1)}, // introduces IncOp: the fault hits this frame
		{Kind: KindInvoke, Sess: 1, Op: spec.Inc("b", 2)},
		{Kind: KindInvoke, Sess: 2, Op: spec.Put("k", "v")},
		{Kind: KindResync, CommitNo: 9},
	}
	for _, tc := range []struct {
		name    string
		cfg     FaultConfig
		corrupt bool // the receiver must report ErrCorrupt (else an I/O error)
	}{
		{"drop", FaultConfig{Drop: 1}, true},
		{"dup", FaultConfig{Dup: 1}, true},
		{"reorder", FaultConfig{Reorder: 1}, true},
		{"flip", FaultConfig{Flip: 1}, true},
		{"truncate", FaultConfig{Truncate: 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			a, b := Wrap(client), Wrap(server)
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer a.Close()
				for i := range sent {
					switch i {
					case 1:
						a.SetFaults(NewFaults(tc.cfg))
					case 2:
						// Deliver everything after it; a held frame ships
						// behind the next one.
						a.SetFaults(NewFaults(FaultConfig{Delay: 1}))
					}
					if a.Send(&sent[i]) != nil {
						return
					}
				}
			}()
			var err error
			for err == nil {
				var got Envelope
				if err = b.Recv(&got); err == nil && !containsEnvelope(sent, got) {
					t.Fatalf("received an envelope that was never sent: %+v", got)
				}
			}
			if tc.corrupt != errors.Is(err, ErrCorrupt) ||
				!tc.corrupt && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("stream ended with %v", err)
			}
			var again Envelope
			if err2 := b.Recv(&again); err2 == nil {
				t.Fatalf("Recv after %v succeeded: %+v", err, again)
			}
			b.Close()
			<-done
		})
	}
}

func containsEnvelope(sent []Envelope, got Envelope) bool {
	for _, s := range sent {
		if reflect.DeepEqual(s, got) {
			return true
		}
	}
	return false
}

// unregistered is a value shape gob has not been told about, so an
// envelope carrying it cannot be encoded.
type unregistered struct{ N int }

// A Send error closes the Conn: the encoder may be ahead of the peer's
// decoder, so the next Send fails and the peer sees the stream end.
func TestSendErrorClosesConn(t *testing.T) {
	client, server := net.Pipe()
	a, b := Wrap(client), Wrap(server)
	defer b.Close()
	if err := a.Send(&Envelope{Kind: KindReply, Value: unregistered{1}}); !errors.Is(err, errEncode) {
		t.Fatalf("send of an unencodable envelope: %v, want an encode error", err)
	}
	if err := a.Send(&Envelope{Kind: KindResync}); err == nil {
		t.Fatal("Send after a failed Send succeeded")
	}
	var got Envelope
	if err := b.Recv(&got); !errors.Is(err, io.EOF) {
		t.Fatalf("peer Recv = %v, %+v; want io.EOF", err, got)
	}
}

// A header announcing MaxFrame costs nothing until body bytes arrive, and
// a large body's buffer is not kept after its frame.
func TestRecvAllocatesAsBytesArrive(t *testing.T) {
	client, server := net.Pipe()
	b := Wrap(server)
	defer b.Close()
	go func() {
		var hdr [headerLen]byte
		binary.BigEndian.PutUint32(hdr[:4], MaxFrame)
		client.Write(hdr[:])
		client.Close()
	}()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var got Envelope
	err := b.Recv(&got)
	runtime.ReadMemStats(&ms1)
	if err == nil {
		t.Fatal("Recv of a header followed by EOF succeeded")
	}
	if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Recv allocated %d bytes for a body that never came", grew)
	}

	client, server = net.Pipe()
	cc := &countingConn{Conn: client}
	a, b := Wrap(cc), Wrap(server)
	defer a.Close()
	defer b.Close()
	roundTrip(t, a, b, cc, &Envelope{Kind: KindReply, Key: strings.Repeat("x", 2*keepBody)})
	if cap(b.rbuf) > keepBody {
		t.Fatalf("Recv kept a %d-byte body buffer", cap(b.rbuf))
	}
	roundTrip(t, a, b, cc, &Envelope{Kind: KindResync, CommitNo: 3})
	if cap(b.rbuf) == 0 {
		t.Fatal("Recv dropped a small body buffer")
	}
}

// An envelope gob cannot encode fails its Link.Send without a redial —
// the peer is fine — and the next Send dials a fresh stream and arrives.
func TestLinkEncodeErrorDoesNotRedial(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	link := NewLink(l.Addr().String(), Envelope{Kind: KindHello, From: 1})
	defer link.Close()

	if err := link.Send(&Envelope{Kind: KindReply, Value: unregistered{1}}); !errors.Is(err, errEncode) {
		t.Fatalf("send of an unencodable envelope: %v, want an encode error", err)
	}
	first := accept(t, l)
	defer first.Close()
	var env Envelope
	if err := first.Recv(&env); err != nil || env.Kind != KindHello {
		t.Fatalf("first connection opened with %+v, %v; want the hello", env, err)
	}
	if err := first.Recv(&env); err == nil {
		t.Fatalf("first connection carried %+v after the failed send", env)
	}
	// Send dials synchronously, so a redial would already sit in the
	// listener's backlog.
	l.(*net.TCPListener).SetDeadline(time.Now().Add(100 * time.Millisecond))
	if c, err := l.Accept(); err == nil {
		c.Close()
		t.Fatal("the failed send redialed")
	}
	l.(*net.TCPListener).SetDeadline(time.Time{})

	if err := link.Send(&Envelope{Kind: KindResync, CommitNo: 5}); err != nil {
		t.Fatal(err)
	}
	second := accept(t, l)
	defer second.Close()
	var hello, body Envelope
	if err := second.Recv(&hello); err != nil || hello.Kind != KindHello {
		t.Fatalf("second connection opened with %+v, %v; want the hello", hello, err)
	}
	if err := second.Recv(&body); err != nil || body.Kind != KindResync || body.CommitNo != 5 {
		t.Fatalf("second connection carried %+v, %v", body, err)
	}
}

func accept(t *testing.T, l net.Listener) *Conn {
	t.Helper()
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return Wrap(c)
}
