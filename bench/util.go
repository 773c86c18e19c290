package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of xs,
// or 0 when there are no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// groupedMedian is the median of samples quantized to multiples of width:
// the bin holding the middle sample is taken to spread evenly over
// [value-width/2, value+width/2) and the median is interpolated inside it.
// The driver's wall clock counts whole microseconds, so a plain median of
// an in-process interval of some 30 µs can only ever read 29, 30 or 31.
func groupedMedian(xs []float64, width float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := s[len(s)/2]
	lo := sort.SearchFloat64s(s, m-width/2)
	hi := sort.SearchFloat64s(s, m+width/2)
	return m - width/2 + (float64(len(s))/2-float64(lo))/float64(hi-lo)*width
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// cpuTimes is processor time consumed, from getrusage: self is this
// process, children every child that has been waited for.
type cpuTimes struct{ self, children time.Duration }

func cpuNow() cpuTimes {
	get := func(who int) time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return cpuTimes{self: get(syscall.RUSAGE_SELF), children: get(syscall.RUSAGE_CHILDREN)}
}

func (c cpuTimes) sub(o cpuTimes) cpuTimes {
	return cpuTimes{self: c.self - o.self, children: c.children - o.children}
}

// cleanups runs registered functions once, newest first, on every exit
// path — normal return, fatal error, SIGINT — so no bayou-node outlives
// the run and no temp dir is left behind.
type cleanups struct {
	mu  sync.Mutex
	fns map[int]func()
	seq int
}

// add registers fn and returns a function that runs it (once) and
// unregisters it.
func (c *cleanups) add(fn func()) func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fns == nil {
		c.fns = map[int]func(){}
	}
	c.seq++
	id := c.seq
	once := sync.OnceFunc(fn)
	c.fns[id] = once
	return func() {
		once()
		c.mu.Lock()
		delete(c.fns, id)
		c.mu.Unlock()
	}
}

func (c *cleanups) runAll() {
	c.mu.Lock()
	ids := make([]int, 0, len(c.fns))
	for id := range c.fns {
		ids = append(ids, id)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	fns := make([]func(), 0, len(ids))
	for _, id := range ids {
		fns = append(fns, c.fns[id])
	}
	c.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// findRepoRoot walks up from the working directory to the go.mod that
// declares module bayou. internal/launch builds bayou-node from there and
// panics its caller when there is none; the benchmark refuses up front.
func findRepoRoot() (string, error) {
	start, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for dir := start; ; {
		if f, err := os.Open(filepath.Join(dir, "go.mod")); err == nil {
			sc := bufio.NewScanner(f)
			isBayou := false
			for sc.Scan() {
				if fs := strings.Fields(sc.Text()); len(fs) == 2 && fs[0] == "module" {
					isBayou = fs[1] == "bayou"
					break
				}
			}
			f.Close()
			if isBayou {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: not inside the bayou module (no go.mod declaring \"module bayou\" above %s); start it from the repository, e.g. `go run -C bench .`", start)
		}
		dir = parent
	}
}

// fsTypeName names the filesystem holding path.
func fsTypeName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// printEnv prints what a reader needs to judge the numbers below it.
func printEnv(w io.Writer, root, tmp string, seed int64, buildS float64) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(w, "# commit=%s %s nproc=%d GOMAXPROCS=%d fs=%s seed=%d build_s=%.2f\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), fsTypeName(tmp), seed, buildS)
	fmt.Fprintf(w, "# load: closed loop, %d client goroutines, checkpoint cadence %d; injected inter-node delay = 0 (loopback)\n",
		clientRoutines, checkpointEvery)
	fmt.Fprintf(w, "# latencies are processor and fsync time of this machine, not of a network or a device\n")
}
