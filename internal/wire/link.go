package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Link is an outbound connection to one peer that dials lazily and
// re-dials with exponential backoff: nodes of a multi-process deployment
// start in arbitrary order, so the first Send may precede the peer's
// listener by a while. Every fresh connection opens with the configured
// hello frame, identifying the dialer to the acceptor.
//
// A Send that hits a broken connection tears it down and retries once on a
// fresh one; the frame in flight when a connection died may or may not
// have arrived (at-least-once overall — receivers dedup, and the resync
// handshake refetches real gaps). An envelope that cannot be encoded fails
// its Send without a redial: the connection it closed is replaced by the
// next Send.
type Link struct {
	addr  string
	hello Envelope

	mu       sync.Mutex
	conn     *Conn         // guarded by mu; nil when disconnected
	closed   bool          // guarded by mu
	faults   *Faults       // guarded by mu; attached to each fresh conn
	writeTmo time.Duration // guarded by mu; propagated to each fresh conn
	rng      *rand.Rand    // guarded by mu; nil = jitter-free backoff
}

// backoff bounds for re-dialing.
const (
	dialBackoffMin = 5 * time.Millisecond
	dialBackoffMax = 250 * time.Millisecond
	dialTimeout    = 2 * time.Second
)

// DefaultConnectBudget is how long a Link's Send — and the controller's
// first dial of each node — keeps re-dialing an unreachable peer before
// reporting failure.
const DefaultConnectBudget = 15 * time.Second

// NewLink prepares an outbound link (no connection is made until the first
// Send). hello is sent first on every fresh connection.
func NewLink(addr string, hello Envelope) *Link {
	return &Link{addr: addr, hello: hello}
}

// SetFaults attaches a seeded fault injector to every connection the link
// opens from now on (nil detaches).
func (l *Link) SetFaults(f *Faults) {
	l.mu.Lock()
	l.faults = f
	if l.conn != nil {
		l.conn.SetFaults(f)
	}
	l.mu.Unlock()
}

// SetWriteTimeout bounds each frame write on the link's connections, so a
// frozen peer surfaces an error instead of wedging the sender.
func (l *Link) SetWriteTimeout(d time.Duration) {
	l.mu.Lock()
	l.writeTmo = d
	if l.conn != nil {
		l.conn.SetWriteTimeout(d)
	}
	l.mu.Unlock()
}

// SetDialJitter seeds the backoff jitter stream. Without it the doubling
// backoff is deterministic and identical across peers, so every peer of a
// restarted node re-dials in lockstep — a thundering herd at the exact
// moment the node is busiest replaying its log. The seed is plumbed from
// the owning node's seed, keeping schedules replayable.
func (l *Link) SetDialJitter(seed int64) {
	l.mu.Lock()
	l.rng = rand.New(rand.NewSource(seed))
	l.mu.Unlock()
}

// Dial connects to addr, retrying with exponential backoff within budget,
// and opens the connection with the hello frame. It is the shared connect
// path of Link and of the controller client (which keeps the raw Conn to
// read the node's event stream). A nil rng means jitter-free backoff.
func Dial(addr string, hello Envelope, budget time.Duration) (*Conn, error) {
	return dialJittered(addr, hello, budget, nil)
}

func dialJittered(addr string, hello Envelope, budget time.Duration, rng *rand.Rand) (*Conn, error) {
	deadline := time.Now().Add(budget)
	wait := dialBackoffMin
	for {
		c, lastErr := net.DialTimeout("tcp", addr, dialTimeout)
		if lastErr == nil {
			conn := Wrap(c)
			if lastErr = conn.Send(&hello); lastErr == nil {
				return conn, nil
			}
			conn.Close()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("wire: cannot reach %s within %v: %w", addr, budget, lastErr)
		}
		time.Sleep(jitter(rng, wait))
		if wait *= 2; wait > dialBackoffMax {
			wait = dialBackoffMax
		}
	}
}

// Send writes one envelope, dialing or re-dialing as needed.
func (l *Link) Send(env *Envelope) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wire: link to %s closed", l.addr)
	}
	if l.conn == nil {
		if err := l.connectLocked(); err != nil {
			return err
		}
	}
	err := l.conn.Send(env)
	if err == nil {
		return nil
	}
	// The failed Send closed the connection; the next Send dials afresh.
	l.conn = nil
	if errors.Is(err, errEncode) {
		return err // the envelope is at fault, not the connection
	}
	// The connection broke underneath us; one fresh attempt.
	if err := l.connectLocked(); err != nil {
		return err
	}
	return l.conn.Send(env)
}

// connectLocked dials with backoff until the budget runs out. Caller holds
// l.mu.
func (l *Link) connectLocked() error {
	conn, err := dialJittered(l.addr, l.hello, DefaultConnectBudget, l.rng)
	if err != nil {
		return err
	}
	conn.SetFaults(l.faults)
	conn.SetWriteTimeout(l.writeTmo)
	l.conn = conn
	return nil
}

// Close tears the link down; subsequent Sends fail.
func (l *Link) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}
