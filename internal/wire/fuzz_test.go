package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"testing"

	"bayou/internal/core"
	"bayou/internal/spec"
	"bayou/internal/txn"
)

// captureConn records what a Conn writes; nothing reads it back.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *captureConn) Close() error                { return nil }

// readConn feeds a Conn a fixed byte stream.
type readConn struct {
	net.Conn
	r io.Reader
}

func (c readConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c readConn) Close() error               { return nil }

// splitFrames cuts a captured stream into frame bodies; a frame cut short
// yields what arrived of its body.
func splitFrames(stream []byte) [][]byte {
	var bodies [][]byte
	for len(stream) >= headerLen {
		n := int(binary.BigEndian.Uint32(stream[:4]))
		stream = stream[headerLen:]
		n = min(n, len(stream))
		bodies = append(bodies, stream[:n])
		stream = stream[n:]
	}
	return bodies
}

// frameOf frames body with its true length and checksum.
func frameOf(body []byte) []byte {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(body, castagnoli))
	return append(hdr[:], body...)
}

// streamBodies encodes envs as the frames of one stream (optionally
// through an injector) and returns the bodies written.
func streamBodies(tb testing.TB, faults *Faults, envs ...*Envelope) [][]byte {
	cc := &captureConn{}
	c := Wrap(cc)
	c.SetFaults(faults)
	for _, env := range envs {
		if err := c.Send(env); err != nil {
			tb.Fatal(err)
		}
	}
	return splitFrames(cc.buf.Bytes())
}

// fuzzShapes are the frames TestFrameRoundTrip and the bench wire probe
// send: an invoke, an events frame, a 64-request batch, a reply, a
// checkpoint transfer, and a transaction nesting ops inside an op.
func fuzzShapes() []*Envelope {
	dot := core.Dot{Replica: 1, EventNo: 3}
	req := core.Req{Timestamp: 9, Dot: dot, Op: spec.Inc("hits", 2)}
	reqs := make([]core.Req, 64)
	for i := range reqs {
		reqs[i] = core.Req{Timestamp: int64(i + 1), Dot: core.Dot{Replica: core.ReplicaID(i % 3), EventNo: int64(i)}, Strong: i%8 == 0, Op: spec.Inc("k", int64(i))}
	}
	var dots core.DotSet
	dots.Add(core.Dot{Replica: 0, EventNo: 1})
	dots.Add(core.Dot{Replica: 2, EventNo: 7})
	inv := invokeEnvelope()
	return []*Envelope{
		&inv,
		{Kind: KindEvents, Clock: 1 << 20, EvSeq: 1 << 10, Events: []Event{
			{EKind: 3, Sess: 4, Dot: dot, TS: 9, Resp: core.Response{Req: req, Value: int64(12), Trace: []core.Dot{dot}, CommittedLen: 4}},
			{EKind: 4, Sess: 4, Dot: dot, TS: 9, Trans: core.Transition{Dot: dot, Session: 4, Status: core.StatusCommitted, Value: int64(12)}},
		}},
		{Kind: KindRBDeliver, From: 1, Clock: 1 << 20, Reqs: reqs},
		{Kind: KindReply, Seq: 7, Value: []spec.Value{"a", int64(1)}, Stats: core.Stats{Steps: 5, Executes: 9}, Bool: true},
		{Kind: KindStateXfer, From: 2, CommitNo: 40, Ckpt: &core.CheckpointRecord{
			BaseLen: 40,
			Image:   map[string]spec.Value{"hits": int64(12), "doc": "abc", "list": []spec.Value{"x"}},
			Dots:    dots,
		}},
		{Kind: KindInvoke, Sess: 7, Strong: true, Op: txn.New().Require(spec.Withdraw("alice", 80)).Do(spec.Deposit("bob", 80)).Txn()},
	}
}

// FuzzRecv feeds one Conn a valid hello frame, then the fuzzed bytes as a
// correctly framed body (so the input reaches the guard and gob, not the
// checksum), then optionally one valid frame. Recv must return — nil or an
// error, never a panic or a hang — and allocate in proportion to the input;
// once it has reported an error, the valid frame must not decode either.
func FuzzRecv(f *testing.F) {
	hello := &Envelope{Kind: KindHello, From: 1}
	base := streamBodies(f, nil, hello, &Envelope{Kind: KindResync, CommitNo: 5})
	helloFrame, tailFrame := frameOf(base[0]), frameOf(base[1])

	for _, shape := range fuzzShapes() {
		f.Add(streamBodies(f, nil, hello, shape)[1], true)
	}
	inv := invokeEnvelope()
	for seed := int64(1); seed <= 3; seed++ {
		for _, cfg := range []FaultConfig{{Seed: seed, Flip: 1}, {Seed: seed, Truncate: 1}} {
			cc := &captureConn{}
			c := Wrap(cc)
			if err := c.Send(hello); err != nil {
				f.Fatal(err)
			}
			c.SetFaults(NewFaults(cfg))
			c.Send(&inv) // a truncate reports the reset it injected
			if bodies := splitFrames(cc.buf.Bytes()); len(bodies) == 2 {
				f.Add(bodies[1], false)
			}
		}
	}

	f.Fuzz(func(t *testing.T, body []byte, withTail bool) {
		stream := append(append([]byte(nil), helloFrame...), frameOf(body)...)
		if withTail {
			stream = append(stream, tailFrame...)
		}
		c := Wrap(readConn{r: bytes.NewReader(stream)})
		var env Envelope
		if err := c.Recv(&env); err != nil {
			t.Fatalf("hello: %v", err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := c.Recv(&env)
		if withTail {
			var tail Envelope
			if err2 := c.Recv(&tail); err != nil && err2 == nil {
				t.Fatalf("after %v, the next frame decoded: %+v", err, tail)
			}
		}
		runtime.ReadMemStats(&ms1)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a complete frame failed with %v, not ErrCorrupt", err)
		}
		// Decoder engines for the types a frame uses cost a fixed amount;
		// everything else must be paid for by input bytes.
		if grew, allowed := ms1.TotalAlloc-ms0.TotalAlloc, uint64(1<<20+512*len(body)); grew > allowed {
			t.Fatalf("%d-byte body allocated %d bytes (allowed %d)", len(body), grew, allowed)
		}
	})
}
