package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The smoke runs are seconds long: 1 s windows, one recovery cycle, one
// round of 2 000 operations, probes cut to a twentieth. `go test -short`
// skips the ones that spawn node processes.

func TestMain(m *testing.M) {
	if _, err := prepare(); err != nil {
		println(err.Error())
		os.Exit(2)
	}
	code := m.Run()
	atExit.runAll()
	os.Exit(code)
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	// prepare() moved the process to the repository root.
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestSpecMatchesBenchmarkJSON pins spec.go to BENCHMARK.json: the same
// workloads and metrics, by the same names, units, directions and bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		unique(w.Name)
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %+v", i, b.Workloads[i], w)
		}
	}
	compare := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) {
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, spec.go %d", kind, len(js), len(defs))
		}
		for i, d := range defs {
			unique(d.Name)
			j := js[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, j, d)
			}
			switch {
			case !bounded && j.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", d.Name)
			case bounded && (j.Bound == nil || *j.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in spec.go (must be in (0, 0.25])", d.Name, j.Bound, d.Bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// smoke runs one workload, short, untraced and traced, and checks that
// the outputs verify, that every end-to-end metric is produced and non-zero,
// and that nothing is produced under a name the spec does not list.
func smoke(t *testing.T, workload string, produced map[string]bool) {
	t.Helper()
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	out := filepath.Join(t.TempDir(), "out")
	for _, traced := range []bool{false, true} {
		res, err := run(runConfig{
			workload: workload, seed: 42, seconds: 1, trace: traced,
			outDir: out, log: io.Discard,
			setups: 1, roundOps: 2000, maxCycles: 1, probeScale: 20,
		})
		if err != nil {
			t.Fatalf("%s traced=%v: %v", workload, traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", workload, traced, res.Correct, res.Attempted, res.Failed)
		}
		for name, v := range res.Metrics {
			if !known[name] {
				t.Errorf("%s emits %q, which BENCHMARK.json does not name", workload, name)
			}
			if v != 0 {
				produced[name] = true
			}
		}
		for _, d := range endToEnd {
			if res.Metrics[d.Name] <= 0 {
				t.Errorf("%s traced=%v: end-to-end metric %s = %v, want > 0", workload, traced, d.Name, res.Metrics[d.Name])
			}
		}
		if traced {
			if _, err := os.Stat(filepath.Join(out, workload+".trace.json")); err != nil {
				t.Errorf("%s: traced run wrote no trace file: %v", workload, err)
			}
		}
	}
}

func TestSmokeInproc(t *testing.T) {
	produced := map[string]bool{}
	smoke(t, wlInproc, produced)
	if !produced["facade.invoke_guarantee_us"] || !produced["core.invoke_us"] || !produced["wire.invoke_frame_us"] {
		t.Errorf("traced in-process run left per-layer metrics empty: %v", produced)
	}
	if produced["store.saves_per_op"] {
		t.Errorf("store.saves_per_op is non-zero without a store")
	}
}

// TestSmokeSockets runs the three process-spawning workloads and checks
// that, between them and the in-process one, every per-layer metric named
// in BENCHMARK.json gets a value (fail_ratio excepted: it must stay 0).
func TestSmokeSockets(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns bayou-node processes")
	}
	produced := map[string]bool{}
	for _, w := range workloads {
		smoke(t, w.Name, produced)
	}
	for _, d := range perLayer {
		if d.Name == "fail_ratio" {
			continue
		}
		if !produced[d.Name] {
			t.Errorf("no workload produced per-layer metric %s", d.Name)
		}
	}
	if produced["fail_ratio"] {
		t.Errorf("an operation failed")
	}
}

// TestResultLine checks the contract's last line: exactly the four keys,
// and exactly the mode's metrics, each with value and unit.
func TestResultLine(t *testing.T) {
	r := &result{Correct: true, Attempted: 3, Metrics: map[string]float64{"ops_per_s": 12.5, "stray": 1}}
	var got struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	line := r.jsonLine(endToEnd)
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	_ = json.Unmarshal([]byte(line), &raw)
	if len(raw) != 4 || got.Correct == nil || got.Attempted == nil || got.Failed == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	if len(got.Metrics) != len(endToEnd) {
		t.Errorf("result line carries %d metrics, want %d", len(got.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := got.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("metric %s: %+v", d.Name, m)
		}
	}
}
