// Package experiments regenerates every evaluation artifact of the paper —
// its two figures, the §2.3 progress phenomena, the three theorems, and the
// comparisons it makes in prose — as machine-checked experiments E1…E13
// (the index lives in DESIGN.md §2; E13 validates this repository's
// incremental/batched execution engine rather than a paper claim). Each
// experiment returns rows of paper-claim vs. measured-result with a pass
// flag; the root bench harness and cmd/bayou-bench print them.
package experiments

import (
	"fmt"
	"strings"

	"bayou/internal/check"
	"bayou/internal/cluster"
	"bayou/internal/core"
	"bayou/internal/scenario"
	"bayou/internal/spec"
	"bayou/internal/workload"
)

// Row is one paper-vs-measured comparison line.
type Row struct {
	Name     string // what is being compared
	Paper    string // the paper's claim / expected shape
	Measured string // what this run produced
	OK       bool
}

// Result is one experiment's outcome.
type Result struct {
	ID    string // "E1" … "E12"
	Title string
	Rows  []Row
}

// OK reports whether every row matched.
func (r Result) OK() bool {
	for _, row := range r.Rows {
		if !row.OK {
			return false
		}
	}
	return true
}

// String renders the result as an aligned table.
func (r Result) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.OK() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s  %s  [%s]\n", r.ID, r.Title, status)
	for _, row := range r.Rows {
		mark := "ok"
		if !row.OK {
			mark = "MISMATCH"
		}
		fmt.Fprintf(&b, "    %-38s paper: %-28s measured: %-28s %s\n",
			row.Name, row.Paper, row.Measured, mark)
	}
	return b.String()
}

func row(name, paper, measured string, ok bool) Row {
	return Row{Name: name, Paper: paper, Measured: measured, OK: ok}
}

func valueRow(name string, want spec.Value, call *cluster.Call) Row {
	measured := "∇ (pending)"
	ok := false
	if call != nil && call.Done() {
		measured = spec.Encode(call.Response().Value)
		ok = spec.Equal(call.Response().Value, want)
	}
	return row(name, spec.Encode(want), measured, ok)
}

func stableRow(name string, want spec.Value, call *cluster.Call) Row {
	measured := "no stable notice"
	ok := false
	if call != nil {
		if stable, has := call.Stable(); has {
			measured = spec.Encode(stable.Value)
			ok = spec.Equal(stable.Value, want)
		}
	}
	return row(name, spec.Encode(want), measured, ok)
}

// E1 reproduces Figure 1: the exact tentative and stable return values, and
// the disagreement between the two clients' perceived orders.
func E1() (Result, error) {
	res := Result{ID: "E1", Title: "Figure 1 — temporary operation reordering"}
	out, err := scenario.Figure1(core.Original)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows,
		valueRow("weak append(a) tentative rval", "a", out.Calls["append(a)"]),
		valueRow("weak append(x) tentative rval", "aax", out.Calls["append(x)"]),
		valueRow("strong duplicate() stable rval", "axax", out.Calls["duplicate()"]),
		stableRow("weak append(a) stable notice (→ a)", "a", out.Calls["append(a)"]),
		stableRow("weak append(x) stable notice (→ ax)", "ax", out.Calls["append(x)"]),
	)
	// The two clients observed append(x) and duplicate() in opposite
	// orders.
	x := out.Calls["append(x)"].Response()
	dup := out.Calls["duplicate()"].Response()
	xSeesDup := containsDot(x.Trace, out.Calls["duplicate()"].Dot())
	dupSeesX := containsDot(dup.Trace, out.Calls["append(x)"].Dot())
	res.Rows = append(res.Rows, row("clients disagree on x vs duplicate order",
		"yes (the anomaly)", fmt.Sprintf("%v", xSeesDup && dupSeesX), xSeesDup && dupSeesX))
	// Convergence: both replicas end with axax.
	conv := spec.Equal(out.Cluster.Replica(0).Read(spec.DefaultListID), out.Cluster.Replica(1).Read(spec.DefaultListID))
	res.Rows = append(res.Rows, row("replicas converge to axax", "yes", fmt.Sprintf("%v", conv), conv))

	// The strong-append variant of the figure: the parenthesized "(→ ax)".
	strongOut, err := figure1StrongAppend()
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, strongOut)
	return res, nil
}

// figure1StrongAppend reruns the Figure 1 schedule with append(x) issued
// strongly at the core level (the scenario package drives the weak case).
func figure1StrongAppend() (Row, error) {
	// The replica-level harness in internal/core's tests covers this
	// exactly; here we drive it through the cluster for completeness.
	c, err := cluster.New(cluster.Config{N: 2, Variant: core.Original, Seed: 4, ManualStepping: true})
	if err != nil {
		return Row{}, err
	}
	c.StabilizeOmega(0)
	sched := c.Scheduler()
	var calls [3]*cluster.Call
	var schedErr error
	invoke := func(i int, id core.ReplicaID, op spec.Op, l core.Level) {
		call, e := c.Invoke(id, op, l)
		if e != nil && schedErr == nil {
			schedErr = e
		}
		calls[i] = call
	}
	sched.At(10, func() { invoke(0, 0, spec.Append("a"), core.Weak); _ = c.DrainReplica(0) })
	sched.At(45, func() { _ = c.DrainReplica(0); _ = c.DrainReplica(1) })
	sched.At(50, func() { invoke(1, 1, spec.Duplicate(), core.Strong) })
	sched.At(55, func() { invoke(2, 0, spec.Append("x"), core.Strong) })
	sched.At(62, func() { _ = c.DrainReplica(0) })
	sched.At(66, func() { _ = c.DrainReplica(1) })
	c.RunFor(70)
	if schedErr != nil {
		return Row{}, schedErr
	}
	for i := 0; i < 50; i++ {
		_ = c.DrainReplica(0)
		_ = c.DrainReplica(1)
		if c.Scheduler().Pending() == 0 {
			break
		}
		c.RunFor(100)
	}
	return valueRow("strong append(x) stable rval", "ax", calls[2]), nil
}

// E2 reproduces Figure 2: circular causality under Algorithm 1, detected by
// the NCC checker, and its elimination by Algorithm 2.
func E2() (Result, error) {
	res := Result{ID: "E2", Title: "Figure 2 — circular causality and its elimination"}
	orig, err := scenario.Figure2(core.Original)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows,
		valueRow("weak append(x) rval (observes y)", "ayx", orig.Calls["append(x)"]),
		valueRow("weak append(y) rval (observes x)", "axy", orig.Calls["append(y)"]),
	)
	ncc := check.NewWitness(orig.History).NCC()
	res.Rows = append(res.Rows, row("Algorithm 1: NCC", "violated (cycle)",
		holdsWord(ncc.Holds), !ncc.Holds))

	mod, err := scenario.Figure2(core.NoCircularCausality)
	if err != nil {
		return res, err
	}
	nccMod := check.NewWitness(mod.History).NCC()
	res.Rows = append(res.Rows, row("Algorithm 2: NCC", "holds",
		holdsWord(nccMod.Holds), nccMod.Holds))
	return res, nil
}

// E3 reproduces the §2.3 unbounded-latency argument.
func E3() (Result, error) {
	res := Result{ID: "E3", Title: "§2.3 — weak ops not bounded wait-free (slow replica)"}
	orig, err := workload.SlowReplicaLatency(core.Original, 3, 12, 40, 60)
	if err != nil {
		return res, err
	}
	first, last := orig[0].Value, orig[len(orig)-1].Value
	res.Rows = append(res.Rows, row("Alg. 1 slow-replica latency growth",
		"grows without bound", fmt.Sprintf("%d -> %d over %d calls", first, last, len(orig)),
		last > 2*first))
	mod, err := workload.SlowReplicaLatency(core.NoCircularCausality, 3, 12, 40, 60)
	if err != nil {
		return res, err
	}
	allZero := true
	for _, p := range mod {
		if p.Value != 0 {
			allZero = false
		}
	}
	res.Rows = append(res.Rows, row("Alg. 2 weak latency",
		"0 (bounded wait-free)", fmt.Sprintf("all zero: %v", allZero), allZero))
	return res, nil
}

// E4 reproduces the second §2.3 argument: slowing the clock shifts the cost
// into rollbacks on the other replicas.
func E4() (Result, error) {
	res := Result{ID: "E4", Title: "§2.3 — clock slowdown causes growing rollbacks elsewhere"}
	slowdowns := []int64{1, 4, 16}
	points, err := workload.ClockSkewRollbacks(core.NoCircularCausality, 3, 10, slowdowns)
	if err != nil {
		return res, err
	}
	growing := points[len(points)-1].Value > points[0].Value
	var vals []string
	for i, p := range points {
		vals = append(vals, fmt.Sprintf("x%d:%d", slowdowns[i], p.Value))
	}
	res.Rows = append(res.Rows, row("fast-replica rollbacks vs clock slowdown",
		"grows with slowdown", strings.Join(vals, " "), growing))
	return res, nil
}

// E5 verifies Theorem 2 across randomized stable runs.
func E5(seeds int) (Result, error) {
	res := Result{ID: "E5", Title: "Theorem 2 — stable runs satisfy FEC(weak) ∧ FEC(strong) ∧ Seq(strong)"}
	pass := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		out, err := scenario.StableRun(seed, 3, 6, core.NoCircularCausality)
		if err != nil {
			return res, err
		}
		w := check.NewWitness(out.History)
		if w.FEC(core.Weak).OK() && w.FEC(core.Strong).OK() && w.Seq(core.Strong).OK() && w.ArTotal().Holds {
			pass++
		}
	}
	res.Rows = append(res.Rows, row("randomized stable runs passing all checks",
		fmt.Sprintf("%d/%d", seeds, seeds), fmt.Sprintf("%d/%d", pass, seeds), pass == seeds))
	return res, nil
}

// E6 verifies Theorem 3 across randomized asynchronous runs.
func E6(seeds int) (Result, error) {
	res := Result{ID: "E6", Title: "Theorem 3 — asynchronous runs: FEC(weak) holds, Seq(strong) unachieved"}
	fecPass, seqFail := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		out, err := scenario.AsyncRun(seed, 3, 6)
		if err != nil {
			return res, err
		}
		w := check.NewWitness(out.History)
		if w.FEC(core.Weak).OK() {
			fecPass++
		}
		if !w.SeqPendingAware(core.Strong).OK() {
			seqFail++
		}
	}
	res.Rows = append(res.Rows,
		row("FEC(weak) holds", fmt.Sprintf("%d/%d", seeds, seeds), fmt.Sprintf("%d/%d", fecPass, seeds), fecPass == seeds),
		row("Seq(strong) unachieved (strong ops pend)", fmt.Sprintf("%d/%d", seeds, seeds), fmt.Sprintf("%d/%d", seqFail, seeds), seqFail == seeds),
	)
	return res, nil
}

// E7 replays the Theorem 1 impossibility construction and the register
// counterpoint.
func E7() (Result, error) {
	res := Result{ID: "E7", Title: "Theorem 1 — BEC(weak) ∧ Seq(strong) impossible for arbitrary F"}
	out, err := scenario.Theorem1()
	if err != nil {
		return res, err
	}
	search, err := check.Search(out.History, check.BECWeakSeqStrong())
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, row("list-type construction satisfiable?",
		"no (impossibility)", fmt.Sprintf("%v (%d ar orders refuted)", search.Satisfiable, search.ExploredArs),
		!search.Satisfiable))
	// FEC(weak) still holds on the same run: Bayou's actual guarantee.
	fec := check.NewWitness(out.History).FEC(core.Weak)
	res.Rows = append(res.Rows, row("same run satisfies FEC(weak)",
		"yes", fmt.Sprintf("%v", fec.OK()), fec.OK()))
	return res, nil
}

// E8 demonstrates the BEC > FEC separation on the minimal reordering
// history.
func E8() (Result, error) {
	res := Result{ID: "E8", Title: "§4 — BEC(weak) is strictly stronger than FEC(weak)"}
	out, err := scenario.StableRun(12, 3, 1, core.NoCircularCausality)
	if err != nil {
		return res, err
	}
	_ = out
	// Use a crafted run that certainly reorders: clock-skewed cluster.
	c, err := cluster.New(cluster.Config{N: 3, Variant: core.NoCircularCausality, Seed: 21,
		ClockSlowdown: map[core.ReplicaID]int64{2: 8}})
	if err != nil {
		return res, err
	}
	c.StabilizeOmega(0)
	for round := 0; round < 4; round++ {
		if _, err := c.Invoke(0, spec.Append("f"), core.Weak); err != nil {
			return res, err
		}
		if _, err := c.Invoke(2, spec.Append("s"), core.Weak); err != nil {
			return res, err
		}
		c.RunFor(25)
		if _, err := c.Invoke(1, spec.ListRead(), core.Weak); err != nil {
			return res, err
		}
		c.RunFor(35)
	}
	if err := c.Settle(0); err != nil {
		return res, err
	}
	c.MarkStable()
	if _, err := c.Invoke(1, spec.ListRead(), core.Weak); err != nil {
		return res, err
	}
	if err := c.Settle(0); err != nil {
		return res, err
	}
	h, err := c.History()
	if err != nil {
		return res, err
	}
	w := check.NewWitness(h)
	fec := w.FEC(core.Weak)
	bec := w.BEC(core.Weak)
	reordered := w.CountReordered()
	res.Rows = append(res.Rows,
		row("temporary reordering occurred", ">0 events", fmt.Sprintf("%d events", reordered), reordered > 0),
		row("FEC(weak)", "holds", holdsWord(fec.OK()), fec.OK()),
		row("BEC(weak)", "violated (RVal)", holdsWord(bec.OK()), !bec.OK()),
	)
	return res, nil
}

// E9 regenerates the baseline comparison table.
func E9() (Result, error) {
	res := Result{ID: "E9", Title: "§2.2/§6 — Bayou vs EC-only store vs SMR vs GSP"}
	rows, err := workload.Compare(7)
	if err != nil {
		return res, err
	}
	expect := map[string]struct {
		weakAvail bool
		strong    bool
	}{
		"bayou (Alg. 2 + Paxos TOB)": {true, true},
		"ec-store (LWW, RB only)":    {true, false},
		"smr (all ops via TOB)":      {false, true},
		"gsp (cloud sequencer)":      {true, false},
	}
	for _, r := range rows {
		want := expect[r.System]
		ok := r.WeakAvailableInMinority == want.weakAvail && r.StrongSupported == want.strong && r.ConvergedAfterHeal
		res.Rows = append(res.Rows, row(r.System,
			fmt.Sprintf("weakAvail=%v strong=%v", want.weakAvail, want.strong),
			fmt.Sprintf("weakAvail=%v strong=%v strongMin=%s rollbacks=%d reordered=%d converged=%v",
				r.WeakAvailableInMinority, r.StrongSupported, r.StrongInMinority, r.Rollbacks, r.Reordered, r.ConvergedAfterHeal),
			ok))
	}
	// Only Bayou shows reordering; only Bayou rolls back.
	res.Rows = append(res.Rows, row("reordering is unique to the mixed system",
		"bayou only", fmt.Sprintf("bayou reordered=%d, baselines 0 by construction", rows[0].Reordered),
		rows[0].Reordered > 0))
	return res, nil
}

// E10 demonstrates the §A.1.2 trade-off: Algorithm 2 gains bounded
// wait-freedom but loses read-your-writes.
func E10() (Result, error) {
	res := Result{ID: "E10", Title: "§A.1.2 — bounded wait-freedom costs read-your-writes"}
	run := func(v core.Variant) (check.Result, error) {
		c, err := cluster.New(cluster.Config{N: 2, Variant: v, Seed: 17})
		if err != nil {
			return check.Result{}, err
		}
		c.StabilizeOmega(0)
		if _, err := c.Invoke(0, spec.Append("w"), core.Weak); err != nil {
			return check.Result{}, err
		}
		if v == core.Original {
			if err := c.Settle(0); err != nil {
				return check.Result{}, err
			}
		}
		if _, err := c.Invoke(0, spec.ListRead(), core.Weak); err != nil {
			return check.Result{}, err
		}
		if err := c.Settle(0); err != nil {
			return check.Result{}, err
		}
		h, err := c.History()
		if err != nil {
			return check.Result{}, err
		}
		return check.NewWitness(h).ReadYourWrites(), nil
	}
	mod, err := run(core.NoCircularCausality)
	if err != nil {
		return res, err
	}
	orig, err := run(core.Original)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows,
		row("Algorithm 2 read-your-writes", "violated", holdsWord(mod.Holds), !mod.Holds),
		row("Algorithm 1 read-your-writes", "holds", holdsWord(orig.Holds), orig.Holds),
	)
	return res, nil
}

// E11 is the TOB ablation: primary commit (original Bayou) vs Paxos.
func E11() (Result, error) {
	res := Result{ID: "E11", Title: "§2.1 — primary commit vs consensus TOB (fault tolerance)"}
	run := func(kind cluster.TOBKind, crash bool) (done bool, err error) {
		c, err := cluster.New(cluster.Config{N: 3, Variant: core.NoCircularCausality, TOB: kind, Seed: 23})
		if err != nil {
			return false, err
		}
		c.StabilizeOmega(1) // for Paxos; primary ignores Ω
		if _, err := c.Invoke(1, spec.Append("pre"), core.Strong); err != nil {
			return false, err
		}
		if err := c.Settle(0); err != nil {
			return false, err
		}
		if crash {
			c.Network().Crash(0) // the primary / a Paxos follower
			c.StabilizeOmega(1)
		}
		call, err := c.Invoke(2, spec.Append("post"), core.Strong)
		if err != nil {
			return false, err
		}
		c.RunFor(20_000)
		return call.Done(), nil
	}
	primaryHealthy, err := run(cluster.PrimaryTOB, false)
	if err != nil {
		return res, err
	}
	primaryCrashed, err := run(cluster.PrimaryTOB, true)
	if err != nil {
		return res, err
	}
	paxosCrashed, err := run(cluster.PaxosTOB, true)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows,
		row("primary TOB, healthy: strong op commits", "yes", fmt.Sprintf("%v", primaryHealthy), primaryHealthy),
		row("primary TOB, primary crashed", "blocks forever", fmt.Sprintf("done=%v", primaryCrashed), !primaryCrashed),
		row("Paxos TOB, one replica crashed", "still commits", fmt.Sprintf("done=%v", paxosCrashed), paxosCrashed),
	)
	return res, nil
}

// E12 profiles rollback cost against timestamp/commit-order divergence.
func E12() (Result, error) {
	res := Result{ID: "E12", Title: "Protocol cost — rollbacks vs clock skew"}
	points, err := workload.RollbackCostSweep(3, 10, []int64{1, 4, 16})
	if err != nil {
		return res, err
	}
	var vals []string
	for _, p := range points {
		vals = append(vals, fmt.Sprintf("x%d:%.2f/op", p.Slowdown, p.RollbacksPerOp))
	}
	growing := points[len(points)-1].RollbacksPerOp > points[0].RollbacksPerOp
	res.Rows = append(res.Rows, row("rollbacks per op vs skew",
		"monotone growth", strings.Join(vals, " "), growing))
	return res, nil
}

// E13 validates the incremental engine's batched draining: the same bursty
// weak workload run with the paper-faithful one-event-per-activation
// discipline and with batched activations (StepBatch 16) converges every
// replica to the identical state, still satisfies FEC(weak), and consumes
// measurably fewer scheduler events.
func E13() (Result, error) {
	res := Result{ID: "E13", Title: "Engine — batched draining: same convergence, fewer events"}
	type outcome struct {
		state  spec.Value
		events int64
		fecOK  bool
	}
	run := func(batch int) (outcome, error) {
		c, err := cluster.New(cluster.Config{N: 3, Variant: core.NoCircularCausality, Seed: 29, StepBatch: batch})
		if err != nil {
			return outcome{}, err
		}
		c.StabilizeOmega(0)
		// Bursts of weak appends build real backlogs on the remote
		// replicas; under Algorithm 2 each call returns at invoke, so a
		// session can burst without blocking.
		labels := []string{"a", "b", "c"}
		for round := 0; round < 6; round++ {
			for i := 0; i < 3; i++ {
				for k := 0; k < 4; k++ {
					if _, err := c.Invoke(core.ReplicaID(i), spec.Append(labels[i]), core.Weak); err != nil {
						return outcome{}, err
					}
				}
			}
			c.RunFor(15)
		}
		if _, err := c.Invoke(0, spec.Append("fin"), core.Strong); err != nil {
			return outcome{}, err
		}
		if err := c.Settle(0); err != nil {
			return outcome{}, err
		}
		// Post-quiescence probes anchor the checker's "eventually"
		// predicates (same discipline as E8).
		c.MarkStable()
		for i := 0; i < 3; i++ {
			if _, err := c.Invoke(core.ReplicaID(i), spec.ListRead(), core.Weak); err != nil {
				return outcome{}, err
			}
		}
		if err := c.Settle(0); err != nil {
			return outcome{}, err
		}
		for i := 1; i < 3; i++ {
			if !spec.Equal(c.Replica(0).Read(spec.DefaultListID), c.Replica(core.ReplicaID(i)).Read(spec.DefaultListID)) {
				return outcome{}, fmt.Errorf("E13: replica %d did not converge (batch=%d)", i, batch)
			}
		}
		h, err := c.History()
		if err != nil {
			return outcome{}, err
		}
		return outcome{
			state:  c.Replica(0).Read(spec.DefaultListID),
			events: c.Scheduler().Steps(),
			fecOK:  check.NewWitness(h).FEC(core.Weak).OK(),
		}, nil
	}
	seq, err := run(1)
	if err != nil {
		return res, err
	}
	bat, err := run(16)
	if err != nil {
		return res, err
	}
	same := spec.Equal(seq.state, bat.state)
	res.Rows = append(res.Rows,
		row("converged state, batch=16 vs batch=1", "identical",
			fmt.Sprintf("equal=%v", same), same),
		row("FEC(weak) under batched draining", "holds", holdsWord(bat.fecOK), bat.fecOK),
		row("scheduler events, batch=16 vs batch=1",
			"fewer", fmt.Sprintf("%d vs %d", bat.events, seq.events), bat.events < seq.events),
	)
	return res, nil
}

// Entry pairs an experiment id with its runner.
type Entry struct {
	ID  string
	Run func() (Result, error)
}

// Registry returns every experiment in order, with default arities bound.
// All, cmd/bayou-bench and the root package's BenchmarkExperiments derive
// from it, so the set cannot drift between the tables and the tests.
func Registry() []Entry {
	return []Entry{
		{"E1", E1}, {"E2", E2}, {"E3", E3}, {"E4", E4},
		{"E5", func() (Result, error) { return E5(8) }},
		{"E6", func() (Result, error) { return E6(8) }},
		{"E7", E7}, {"E8", E8}, {"E9", E9}, {"E10", E10},
		{"E11", E11}, {"E12", E12}, {"E13", E13},
	}
}

// All runs every experiment in order.
func All() ([]Result, error) {
	entries := Registry()
	out := make([]Result, 0, len(entries))
	for _, e := range entries {
		res, err := e.Run()
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func holdsWord(b bool) string {
	if b {
		return "holds"
	}
	return "violated"
}

func containsDot(ds []core.Dot, d core.Dot) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}
