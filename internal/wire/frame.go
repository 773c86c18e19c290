package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// MaxFrame bounds one frame's body; a peer announcing more is corrupt (or
// hostile) and the connection is torn down rather than the allocation made.
// Checkpoint images are the largest legitimate payload.
const MaxFrame = 64 << 20

// ErrCorrupt marks a frame that failed verification — its length, its
// checksum, the guard's shape walk, or the gob decode. The connection's
// gob stream can no longer be trusted (the decoder's type table may have
// diverged from the sender's), so the receiver tears the connection down
// and the sender redials: corruption is detected and repaired by
// retransmission on a fresh stream, never handed on as a misdecoded
// envelope.
var ErrCorrupt = errors.New("wire: corrupt frame")

// errEncode marks a Send that failed before any byte left the process: gob
// refused the envelope, or its frame exceeds MaxFrame. The peer is fine,
// so a Link returns the error instead of redialing for it.
var errEncode = errors.New("wire: encode")

// castagnoli is the CRC32C polynomial table (hardware-accelerated on the
// platforms the repo targets), shared by every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerLen frames each body with a 4-byte big-endian length and a 4-byte
// CRC32C over the body.
const headerLen = 8

var zeroHeader [headerLen]byte

const (
	// readChunk is the body buffer Recv allocates before any body bytes
	// have arrived. It grows only once arrived bytes fill it, by at least
	// readChunk and otherwise geometrically (append's policy), so a header
	// announcing MaxFrame costs one chunk, and a body in flight a small
	// multiple of what has arrived, not MaxFrame.
	readChunk = 64 << 10
	// keepBody is the largest body buffer Recv keeps for the next frame; a
	// checkpoint image's buffer is dropped once it is decoded.
	keepBody = 1 << 20
)

// Conn frames one TCP connection: 4-byte big-endian length prefix, 4-byte
// CRC32C, gob body. The connection is one gob stream: a single encoder and
// a single decoder live as long as the Conn, so each type descriptor
// crosses it once, in the first frame that needs it. A reader can only
// join a stream at its start — which is safe because every reconnect makes
// a new Conn, and so a new stream. The price is that a frame lost from the
// middle of a stream (the fault injector's drop, reorder or duplicate of a
// frame that introduced a type) fails the connection with ErrCorrupt and
// costs a redial. Send is safe for concurrent use; Recv is a single-reader
// method.
type Conn struct {
	c net.Conn

	// Receive side, owned by the single reader.
	r     *bufio.Reader
	dec   *gob.Decoder // created by the first Recv; reads body only
	body  bytes.Reader // the current frame's checksummed body
	rbuf  []byte       // body buffer reused across frames, cap ≤ keepBody
	guard Guard        // mirrors dec's type table; walks each body first
	rerr  error        // first ErrCorrupt; every later Recv returns it

	mu       sync.Mutex
	enc      *gob.Encoder  // guarded by mu; created by the first Send, writes into buf
	serr     error         // guarded by mu; set by a failed Send, which closed the conn
	w        *bufio.Writer // guarded by mu
	buf      bytes.Buffer  // guarded by mu
	reorder  []byte        // guarded by mu; frame held back by the injector
	faults   *Faults       // guarded by mu; nil = no injection
	writeTmo time.Duration // guarded by mu; 0 = no write deadline
}

// Wrap frames an established connection.
func Wrap(c net.Conn) *Conn {
	return &Conn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// SetFaults attaches a seeded fault injector to the send path (nil
// detaches). Peer links of a chaos deployment set it; controller links
// never do.
func (c *Conn) SetFaults(f *Faults) {
	c.mu.Lock()
	c.faults = f
	c.mu.Unlock()
}

// SetWriteTimeout bounds every frame write; a peer that stops draining
// (SIGSTOP, dead TCP window) surfaces an error instead of blocking the
// sender forever once kernel buffers fill.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	c.mu.Lock()
	c.writeTmo = d
	c.mu.Unlock()
}

// Send writes one envelope as a frame and flushes it. Any error closes the
// connection and fails every later Send: the encoder may have recorded
// type descriptors the peer never received, so no later frame on this
// stream could be decoded.
func (c *Conn) Send(env *Envelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.serr != nil {
		return c.serr
	}
	if err := c.sendLocked(env); err != nil {
		c.serr = fmt.Errorf("wire: connection closed by an earlier send error (%v)", err)
		c.c.Close()
		return err
	}
	return nil
}

// sendLocked encodes one frame into buf and ships it. Caller holds c.mu.
func (c *Conn) sendLocked(env *Envelope) error {
	c.buf.Reset()
	c.buf.Write(zeroHeader[:]) // header placeholder
	if c.enc == nil {
		c.enc = gob.NewEncoder(&c.buf)
	}
	if err := c.enc.Encode(env); err != nil {
		return fmt.Errorf("%w %d: %w", errEncode, env.Kind, err)
	}
	frame := c.buf.Bytes()
	body := frame[headerLen:]
	if len(body) > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", errEncode, len(body))
	}
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(body, castagnoli))
	if c.faults != nil {
		return c.sendFaultyLocked(frame)
	}
	return c.writeFrameLocked(frame)
}

// writeFrameLocked ships one serialized frame. Caller holds c.mu.
func (c *Conn) writeFrameLocked(frame []byte) error {
	if c.writeTmo > 0 {
		c.c.SetWriteDeadline(time.Now().Add(c.writeTmo))
		defer c.c.SetWriteDeadline(time.Time{})
	}
	if _, err := c.w.Write(frame); err != nil {
		return err
	}
	return c.w.Flush()
}

// sendFaultyLocked runs one serialized frame through the injector's seeded
// decision: deliver, drop, duplicate, delay, reorder behind the next
// frame, flip a bit (the receiver's checksum catches it), or truncate
// mid-frame and reset the connection. Caller holds c.mu.
func (c *Conn) sendFaultyLocked(frame []byte) error {
	d := c.faults.decide(len(frame))
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	switch d.action {
	case faultDrop:
		return nil
	case faultReorder:
		// Hold this frame back; it ships after the next one (or is lost
		// with the connection, which at-least-once delivery absorbs).
		c.reorder = append([]byte(nil), frame...)
		return nil
	case faultFlip:
		// Flip inside the body (never the length header): the receiver's
		// checksum rejects the frame immediately instead of misframing the
		// stream behind a corrupted length.
		mut := append([]byte(nil), frame...)
		mut[headerLen+d.offset%(len(mut)-headerLen)] ^= 1 << (d.offset % 8)
		frame = mut
	case faultTruncate:
		cut := d.offset % len(frame)
		c.writeFrameLocked(frame[:cut])
		return c.c.Close() // mid-frame connection reset
	}
	if err := c.writeFrameLocked(frame); err != nil {
		return err
	}
	if held := c.reorder; held != nil {
		c.reorder = nil
		if err := c.writeFrameLocked(held); err != nil {
			return err
		}
	}
	if d.action == faultDup {
		return c.writeFrameLocked(frame)
	}
	return nil
}

// Recv reads one frame into env (zeroing it first — gob only writes the
// fields present on the wire). A corrupt frame returns ErrCorrupt, and so
// does every later call: the caller must discard the connection, not the
// frame.
func (c *Conn) Recv(env *Envelope) error {
	if c.rerr != nil {
		return c.rerr
	}
	err := c.recv(env)
	if errors.Is(err, ErrCorrupt) {
		c.rerr = err
	}
	return err
}

func (c *Conn) recv(env *Envelope) error {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return fmt.Errorf("%w: announced body of %d bytes exceeds limit", ErrCorrupt, n)
	}
	body, err := c.readBody(int(n))
	if err != nil {
		return err
	}
	want := binary.BigEndian.Uint32(hdr[4:8])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return fmt.Errorf("%w: checksum %#x, want %#x", ErrCorrupt, got, want)
	}
	if err := c.guard.Check(body, envelopeType); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// The decoder reads through an io.ByteReader, so gob adds no buffering
	// of its own and can never read past this frame's body.
	c.body.Reset(body)
	if c.dec == nil {
		c.dec = gob.NewDecoder(&c.body)
	}
	*env = Envelope{}
	if err := c.dec.Decode(env); err != nil {
		return fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	if left := c.body.Len(); left != 0 {
		return fmt.Errorf("%w: %d bytes after the envelope", ErrCorrupt, left)
	}
	return nil
}

// readBody reads an n-byte body, growing the buffer (see readChunk) only
// when the bytes that have arrived fill it. Decoded envelopes never alias the
// buffer (gob copies out of its own message buffers), so it is reused for
// the next frame unless it outgrew keepBody.
func (c *Conn) readBody(n int) ([]byte, error) {
	buf := c.rbuf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), readChunk))
		}
		m, err := io.ReadFull(c.r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	if cap(buf) <= keepBody {
		c.rbuf = buf
	} else {
		c.rbuf = nil
	}
	return buf, nil
}

// Close tears the connection down; blocked Send/Recv calls unblock with an
// error.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr names the peer, for diagnostics.
func (c *Conn) RemoteAddr() string { return c.c.RemoteAddr().String() }
