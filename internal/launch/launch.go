// Package launch builds and spawns cmd/bayou-node processes for the
// multi-process test and benchmark harnesses: it compiles the node binary
// through the go tool (cached by the build cache, so repeat launches are
// cheap), reserves loopback addresses, starts one OS process per replica,
// and captures each node's stderr for failure artifacts. It is test
// plumbing, not part of the deployment surface — production clusters
// start bayou-node themselves.
//
// Beyond starting and stopping, the launcher is the process-level fault
// plane of the chaos harness: Kill delivers SIGKILL (no drain, no final
// save — the crash the durability layer must survive), Freeze/Thaw deliver
// SIGSTOP/SIGCONT (a wedged-but-alive node, the case the controller's RPC
// deadlines must surface), and Restart re-execs a node on its original
// address with its original arguments — including its data dir, so a
// durable node comes back from its own disk.
package launch

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Options parametrizes a deployment beyond its size.
type Options struct {
	// N is the number of replicas.
	N int
	// Volatile disables per-node data dirs. By default every node gets
	// -data-dir under the scratch dir, so the whole socket suite runs with
	// durability on — the conformance tests double as its regression net.
	Volatile bool
	// Seed is the deployment's chaos seed; node i receives a seed derived
	// from it. Zero is a valid (and the default) seed.
	Seed int64
	// Chaos is a wire fault-injection spec (see wire.ParseFaults) passed to
	// every node; empty injects nothing.
	Chaos string
	// ExtraArgs are appended to every node's command line.
	ExtraArgs []string
}

// nodeProc is one replica process slot; the slot outlives any single OS
// process (Kill + Restart reuse it).
type nodeProc struct {
	args    []string // stable across restarts: same id, addr, data dir
	logPath string

	cmd    *exec.Cmd // guarded by Deployment.mu; nil once reaped
	frozen bool      // guarded by Deployment.mu
}

// Deployment is a running set of bayou-node processes.
type Deployment struct {
	// Addrs lists every node's listen address in replica-id order — feed
	// it to bayou.WithPeers or livenet.RemoteConfig verbatim.
	Addrs []string
	// Dir is the scratch directory holding the per-node stderr logs and
	// data dirs.
	Dir string

	mu    sync.Mutex
	nodes []*nodeProc
	once  sync.Once
}

// buildOnce compiles cmd/bayou-node one time per test process; every
// Start shares the binary.
var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// binary returns the path of a compiled bayou-node, building it on first
// use. The build runs at the module root (found by walking up from the
// working directory to go.mod), so it works from any package's test.
func binary() (string, error) {
	buildOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			buildErr = err
			return
		}
		dir, err := os.MkdirTemp("", "bayou-node-bin")
		if err != nil {
			buildErr = err
			return
		}
		bin := filepath.Join(dir, "bayou-node")
		cmd := exec.Command("go", "build", "-o", bin, "bayou/cmd/bayou-node")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building bayou-node: %v\n%s", err, out)
			return
		}
		buildBin = bin
	})
	return buildBin, buildErr
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// reserveAddrs grabs n distinct loopback ports by listening and closing.
// The window between close and the node's own listen is a classic race,
// but the ports come from the kernel's ephemeral range, so collisions in
// practice require another process binding an ephemeral port by number
// in the same instant.
func reserveAddrs(n int) ([]string, error) {
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// Start builds bayou-node and spawns n of them on freshly reserved
// loopback addresses; extraArgs are appended to every node's command line
// (e.g. "-lease", "-checkpoint-every", "3"). The caller must Stop the
// deployment; connecting controllers should rely on the wire layer's dial
// backoff rather than waiting for readiness here.
func Start(n int, extraArgs ...string) (*Deployment, error) {
	return StartWith(Options{N: n, ExtraArgs: extraArgs})
}

// StartWith spawns a deployment from full options.
func StartWith(o Options) (*Deployment, error) {
	if _, err := binary(); err != nil {
		return nil, err
	}
	addrs, err := reserveAddrs(o.N)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "bayou-nodes")
	if err != nil {
		return nil, err
	}
	d := &Deployment{Addrs: addrs, Dir: dir}
	joined := strings.Join(addrs, ",")
	for i := 0; i < o.N; i++ {
		args := []string{"-id", strconv.Itoa(i), "-addrs", joined}
		if !o.Volatile {
			args = append(args, "-data-dir", filepath.Join(dir, "node"+strconv.Itoa(i)+".data"))
		}
		args = append(args, "-seed", strconv.FormatInt(o.Seed*1_000_003+int64(i)+1, 10))
		if o.Chaos != "" {
			args = append(args, "-chaos", o.Chaos)
		}
		args = append(args, o.ExtraArgs...)
		np := &nodeProc{args: args, logPath: filepath.Join(dir, "node"+strconv.Itoa(i)+".log")}
		d.nodes = append(d.nodes, np)
		cmd, err := d.spawn(np)
		if err != nil {
			d.Stop()
			return nil, fmt.Errorf("starting node %d: %w", i, err)
		}
		np.cmd = cmd
	}
	return d, nil
}

// spawn starts one node process appending to its log (restarts of one node
// share a log file, so the failure artifact shows every incarnation).
func (d *Deployment) spawn(np *nodeProc) (*exec.Cmd, error) {
	bin, err := binary()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(np.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, np.args...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	logf.Close() // the child holds its own descriptor
	return cmd, nil
}

// DataDir returns node i's data directory ("" when launched Volatile) —
// chaos harnesses corrupt snapshot files through it between Kill and
// Restart.
func (d *Deployment) DataDir(i int) string {
	for _, a := range d.nodes[i].args {
		if strings.HasPrefix(a, d.Dir) && strings.HasSuffix(a, ".data") {
			return a
		}
	}
	return ""
}

// Kill SIGKILLs node i: no drain, no shutdown RPC, no final save — the
// process dies mid-whatever-it-was-doing. The slot stays; Restart revives
// it on the same address with the same data dir.
func (d *Deployment) Kill(i int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	np := d.nodes[i]
	if np.cmd == nil || np.cmd.Process == nil {
		return fmt.Errorf("launch: node %d is not running", i)
	}
	if np.frozen {
		// A stopped process still dies to SIGKILL, but thaw first so the
		// reap below cannot hang on a stopped zombie edge case.
		np.cmd.Process.Signal(syscall.SIGCONT)
		np.frozen = false
	}
	if err := np.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("launch: kill node %d: %w", i, err)
	}
	np.cmd.Wait()
	np.cmd = nil
	return nil
}

// Restart re-execs a killed node with its original arguments: same id,
// same listen address, same data dir — a durable node recovers from its
// own disk, a volatile one bootstraps from peers.
func (d *Deployment) Restart(i int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	np := d.nodes[i]
	if np.cmd != nil {
		return fmt.Errorf("launch: node %d is already running", i)
	}
	cmd, err := d.spawn(np)
	if err != nil {
		return fmt.Errorf("launch: restart node %d: %w", i, err)
	}
	np.cmd = cmd
	np.frozen = false
	return nil
}

// freezeWait bounds how long Freeze waits for the kernel to report the
// process stopped.
const freezeWait = 5 * time.Second

// Freeze SIGSTOPs node i: the process stops scheduling but stays alive —
// TCP connections remain established and peers' writes back up until
// their write deadlines fire. Signal delivery is asynchronous, so Freeze
// returns only once the process is observed stopped (state T in /proc): a
// caller's next RPC can no longer be answered by a node that had not yet
// acted on the signal.
func (d *Deployment) Freeze(i int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	np := d.nodes[i]
	if np.cmd == nil || np.cmd.Process == nil {
		return fmt.Errorf("launch: node %d is not running", i)
	}
	if err := np.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return fmt.Errorf("launch: freeze node %d: %w", i, err)
	}
	np.frozen = true
	deadline := time.Now().Add(freezeWait)
	for !allStopped(np.cmd.Process.Pid) {
		if time.Now().After(deadline) {
			return fmt.Errorf("launch: freeze node %d: not stopped %v after SIGSTOP", i, freezeWait)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// allStopped reports whether every thread of the process is in scheduler
// state T (stopped): a group stop reaches the threads one by one, and the
// thread about to answer an RPC need not be the first. The state letter
// follows the parenthesized command name in /proc/<pid>/task/<tid>/stat; the
// name may itself contain spaces and parentheses, hence the last ')'. A
// thread file that cannot be read counts as not stopped.
func allStopped(pid int) bool {
	tasks, _ := filepath.Glob("/proc/" + strconv.Itoa(pid) + "/task/*/stat")
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		end := strings.LastIndexByte(string(data), ')')
		if err != nil || end < 0 || end+2 >= len(data) || data[end+2] != 'T' {
			return false
		}
	}
	return len(tasks) > 0
}

// Thaw SIGCONTs a frozen node; it resumes exactly where it stopped.
func (d *Deployment) Thaw(i int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	np := d.nodes[i]
	if np.cmd == nil || np.cmd.Process == nil {
		return fmt.Errorf("launch: node %d is not running", i)
	}
	if err := np.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		return fmt.Errorf("launch: thaw node %d: %w", i, err)
	}
	np.frozen = false
	return nil
}

// Running reports whether node i currently has a live process.
func (d *Deployment) Running(i int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nodes[i].cmd != nil
}

// Stop terminates every node that is still running (SIGTERM, then SIGKILL
// after a grace period) and reaps the processes. Frozen nodes are thawed
// first — a stopped process cannot act on SIGTERM. The scratch directory
// is left in place so failing tests can collect the logs; call Cleanup to
// remove it.
func (d *Deployment) Stop() {
	d.once.Do(func() {
		d.mu.Lock()
		var live []*exec.Cmd
		for _, np := range d.nodes {
			if np.cmd == nil || np.cmd.Process == nil {
				continue
			}
			if np.frozen {
				np.cmd.Process.Signal(syscall.SIGCONT)
				np.frozen = false
			}
			np.cmd.Process.Signal(syscall.SIGTERM)
			live = append(live, np.cmd)
		}
		d.mu.Unlock()
		deadline := time.After(5 * time.Second)
		done := make(chan struct{})
		go func() {
			for _, p := range live {
				p.Wait()
			}
			close(done)
		}()
		select {
		case <-done:
		case <-deadline:
			for _, p := range live {
				if p.Process != nil {
					p.Process.Kill()
				}
			}
			<-done
		}
	})
}

// Cleanup removes the scratch directory. Call it only on success — the
// logs and data dirs are the failure artifact.
func (d *Deployment) Cleanup() {
	os.RemoveAll(d.Dir)
}

// Logs concatenates every node's captured output, labelled per node, for
// embedding in a test failure message.
func (d *Deployment) Logs() string {
	var sb strings.Builder
	for i := range d.nodes {
		data, err := os.ReadFile(d.nodes[i].logPath)
		if err != nil || len(data) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "--- node %d ---\n%s", i, data)
	}
	return sb.String()
}
