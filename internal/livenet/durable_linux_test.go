package livenet

import (
	"net"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"bayou/internal/spec"
	"bayou/internal/store"
	"bayou/internal/wire"
)

// TestFailedAppendStopsNode: once a log append fails, the node must not
// acknowledge the invocation the append was to cover, and ServeNode must
// return an error. The failure is real: after the first invocation has
// written the segment's base, copy A's descriptor in this process is
// replaced by /dev/full, so the next append's write fails with ENOSPC.
func TestFailedAppendStopsNode(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	served := make(chan error, 1)
	go func() { served <- ServeNode(NodeConfig{ID: 0, Addrs: []string{addr}, DataDir: dir, Seed: 1}) }()

	var raw net.Conn
	for deadline := time.Now().Add(waitFor); raw == nil; time.Sleep(5 * time.Millisecond) {
		if raw, err = net.Dial("tcp", addr); err != nil && time.Now().After(deadline) {
			t.Fatalf("dial node: %v", err)
		}
	}
	defer raw.Close()
	conn := wire.Wrap(raw)
	send := func(env *wire.Envelope) {
		if err := conn.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	// awaitReply reads frames until the reply to seq arrives (true) or the
	// connection goes quiet for quiet (false).
	awaitReply := func(seq uint64, quiet time.Duration) bool {
		for {
			raw.SetReadDeadline(time.Now().Add(quiet))
			var env wire.Envelope
			if err := conn.Recv(&env); err != nil {
				return false
			}
			if env.Kind == wire.KindReply && env.Seq == seq {
				return true
			}
		}
	}
	send(&wire.Envelope{Kind: wire.KindHello, From: wire.ControllerID})
	send(&wire.Envelope{Kind: wire.KindInvoke, Seq: 1, Sess: 0, Op: spec.Inc("ctr", 1)})
	if !awaitReply(1, waitFor) {
		t.Fatal("the first invocation was never acknowledged")
	}

	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	copyA, ok := store.NewestPath(dir)
	if !ok {
		t.Fatal("the first invocation left no log segment")
	}
	fd := openFD(t, copyA)
	if err := syscall.Dup3(int(full.Fd()), fd, 0); err != nil {
		t.Fatal(err)
	}

	send(&wire.Envelope{Kind: wire.KindInvoke, Seq: 2, Sess: 0, Op: spec.Inc("ctr", 1)})
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("ServeNode returned nil after a failed append")
		}
		t.Logf("ServeNode: %v", err)
	case <-time.After(waitFor):
		t.Fatal("ServeNode kept serving after a failed append")
	}
	if awaitReply(2, 200*time.Millisecond) {
		t.Fatal("the invocation whose append failed was acknowledged")
	}
}

// openFD finds the descriptor this process holds open on path.
func openFD(t *testing.T, path string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && target == path {
			fd, err := strconv.Atoi(e.Name())
			if err != nil {
				t.Fatal(err)
			}
			return fd
		}
	}
	t.Fatalf("no open descriptor on %s", path)
	return -1
}
