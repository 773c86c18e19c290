// Command bench is the repository's benchmark: four workloads against the
// public façade (bayou.Cluster / bayou.Session), end-to-end metrics a
// client sees, and per-layer metrics measured from outside — spans around
// façade calls, probes of each layer's public functions, the counters the
// public surfaces already expose, and getrusage. See README.md.
//
//	go run -C bench .                       every workload, untraced then traced
//	go run -C bench . -workload sock-durable -seed 7 -seconds 15 -trace 1
//	go run -C bench . -agree                the whole benchmark twice, compared
//
// The driver contract (BENCHMARK.json) runs it through run.sh as
// `--workload W --seed N --seconds S --trace 0|1`; the last line of
// standard output is then one JSON object with the run's metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"bayou/internal/launch"
)

func main() {
	code := realMain()
	atExit.runAll()
	os.Exit(code)
}

func realMain() int {
	workload := flag.String("workload", "", "run one workload (default: all of them, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed of the operation streams")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run — per-layer metrics, spans written to -out")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for <workload>.trace.json")
	agree := flag.Bool("agree", false, "run every workload twice and fail when an end-to-end metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		return 2
	}

	buildS, err := prepare()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	root, _ := os.Getwd()
	printEnv(os.Stdout, root, os.TempDir(), *seed, buildS)

	cfg := runConfig{seed: *seed, seconds: *seconds, outDir: *out, log: os.Stdout}
	switch {
	case *agree:
		return runAgree(cfg, os.Stdout)
	case *workload == "":
		return runAll(cfg, os.Stdout)
	}
	cfg.workload = *workload
	res, err := runOne(cfg, *trace == 1, os.Stdout)
	if err != nil {
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		printBudget(os.Stdout, res)
	}
	fmt.Println(res.jsonLine(defs))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "bench: the outputs are wrong (see VERIFY lines above)")
		return 1
	}
	return 0
}

// prepare makes the process ready to measure: work from the repository
// root, keep every temporary file — node binaries, data dirs, probe dirs —
// in one directory of the checkout (one filesystem, removed on exit), tear
// everything down on SIGINT/SIGTERM, and build bayou-node before any clock
// starts. It returns the build time, which is informational.
func prepare() (float64, error) {
	root, err := findRepoRoot()
	if err != nil {
		return 0, err
	}
	if err := os.Chdir(root); err != nil {
		return 0, err
	}
	tmp := filepath.Join(root, ".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 0, err
	}
	atExit.add(func() { os.RemoveAll(tmp) })
	os.Setenv("TMPDIR", tmp)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "bench: interrupted, stopping the nodes")
		atExit.runAll()
		os.Exit(130)
	}()

	// launch builds the node binary on its first start; an empty
	// deployment triggers exactly that and nothing else.
	t0 := time.Now()
	d, err := launch.StartWith(launch.Options{N: 0})
	if err != nil {
		return 0, fmt.Errorf("bench: building bayou-node: %w", err)
	}
	d.Stop()
	d.Cleanup()
	return time.Since(t0).Seconds(), nil
}

// jsonLine renders the contract's result object with exactly the given
// metrics; a metric the workload has no value for reads 0 (not applicable).
func (r *result) jsonLine(defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// printTable prints every metric of defs by name with unit and, for
// timings, the sample count behind it.
func printTable(w io.Writer, r *result, defs []metricDef) {
	fmt.Fprintf(w, "\n%s: attempted %d, failed %d, correct %v\n", r.Workload, r.Attempted, r.Failed, r.Correct)
	for _, d := range defs {
		n := ""
		if c, ok := r.Counts[d.Name]; ok {
			n = fmt.Sprintf("n=%d", c)
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s %s\n", d.Name, r.Metrics[d.Name], d.Unit, n)
	}
}

// printBudget prints the budget line of a traced socket run.
func printBudget(w io.Writer, r *result) {
	if r.Workload == wlSockDurable || r.Workload == wlSockVolatile {
		fmt.Fprintf(w, "\nbudget @%s: %v\n", r.Workload, budgetOf(r.Metrics))
	}
}

// runAll is the human front end: every workload untraced (end-to-end
// numbers), then traced (per-layer numbers, trace files, budget lines).
func runAll(cfg runConfig, w io.Writer) int {
	code := 0
	summary := map[string]map[string]float64{}
	for _, wl := range workloads {
		cfg.workload = wl.Name
		untraced, err := runOne(cfg, false, w)
		if err != nil {
			return 1
		}
		traced, err := runOne(cfg, true, w)
		if err != nil {
			return 1
		}
		if !untraced.Correct || !traced.Correct {
			code = 1
		}
		// The budget splits the untraced median, the number that is quoted.
		traced.Metrics["weak_p50_ms"] = untraced.Metrics["weak_p50_ms"]
		residual(traced.Metrics)
		printBudget(w, traced)
		summary[wl.Name] = untraced.Metrics
		for _, d := range perLayer {
			summary[wl.Name][d.Name] = traced.Metrics[d.Name]
		}
	}
	line, _ := json.Marshal(summary)
	fmt.Fprintln(w, string(line))
	return code
}

func runOne(cfg runConfig, traced bool, w io.Writer) (*result, error) {
	cfg.trace = traced
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return nil, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printTable(w, res, defs)
	return res, nil
}

// runAgree runs every workload twice on this commit and compares each
// end-to-end metric: a relative gap beyond the metric's bound fails, and
// the metric is then a candidate for demotion to the per-layer list (a
// metric that does not repeat cannot gate a change; it is not given a
// wider bound).
func runAgree(cfg runConfig, w io.Writer) int {
	code := 0
	for _, wl := range workloads {
		cfg.workload = wl.Name
		a, err := runOne(cfg, false, io.Discard)
		if err != nil {
			return 1
		}
		b, err := runOne(cfg, false, io.Discard)
		if err != nil {
			return 1
		}
		if !a.Correct || !b.Correct {
			code = 1
		}
		fmt.Fprintf(w, "\n%s\n  %-16s %14s %14s %8s %6s\n", wl.Name, "metric", "first", "second", "gap", "bound")
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name], b.Metrics[d.Name]
			gap := ratio(y-x, x)
			if gap < 0 {
				gap = -gap
			}
			verdict := ""
			if gap > d.Bound {
				verdict = "DISAGREE: demote to per-layer"
				code = 1
			}
			fmt.Fprintf(w, "  %-16s %14.4f %14.4f %7.1f%% %5.0f%% %s\n", d.Name, x, y, 100*gap, 100*d.Bound, verdict)
		}
	}
	return code
}
