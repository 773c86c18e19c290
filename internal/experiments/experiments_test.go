package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestAllExperimentsPass is the repository's master reproduction check:
// every figure, theorem and comparison of the paper regenerates with the
// expected shape.
func TestAllExperimentsPass(t *testing.T) {
	results, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 13 {
		t.Fatalf("got %d experiments, want 13", len(results))
	}
	var rendered strings.Builder
	for _, res := range results {
		if !res.OK() {
			t.Errorf("experiment failed:\n%s", res)
		}
		fmt.Fprintln(&rendered, res)
	}
	// The tables are deterministic: a change that moves any measured cell
	// shows up here. Regenerate with
	// `go run ./cmd/bayou-bench > internal/experiments/testdata/tables.golden`.
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := rendered.String(); got != string(want) {
		t.Errorf("E1–E13 tables differ from testdata/tables.golden:\n%s", firstDiff(got, string(want)))
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "no differing line"
}

func TestResultRendering(t *testing.T) {
	r := Result{ID: "EX", Title: "demo", Rows: []Row{
		{Name: "a", Paper: "p", Measured: "m", OK: true},
		{Name: "b", Paper: "p", Measured: "m", OK: false},
	}}
	if r.OK() {
		t.Error("OK must be false with a mismatch")
	}
	s := r.String()
	if s == "" || len(s) < 10 {
		t.Error("render too short")
	}
}
