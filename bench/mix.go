package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"bayou"
)

// opKind is one arm of the mix.
type opKind uint8

const (
	weakInc    opKind = iota // 75%: weak Inc(k,1)
	weakTxn                  // 10%: weak Txn(Do(Inc(a,1)), Do(Inc(b,1)))
	strongInc                // 10%: strong Inc(k,1) + Wait
	strongRead               // 5%:  strong CtrGet(k) + Wait
	numKinds
)

var kindNames = [numKinds]string{"op.weak_inc", "op.weak_txn", "op.strong_inc", "op.strong_read"}

// genOp is one generated operation: its arm and counter indices.
type genOp struct {
	kind opKind
	a, b int
}

var keyNames = func() (k [numKeys]string) {
	for i := range k {
		k[i] = fmt.Sprintf("k%d", i)
	}
	return k
}()

// mixGen draws "the mix" from one seeded stream; the system under test
// receives only the operations it generates.
type mixGen struct {
	r *rand.Rand
	z *rand.Zipf
}

// newMixGen derives stream number stream of the run's seed.
func newMixGen(seed int64, stream int) *mixGen {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	return &mixGen{r: r, z: rand.NewZipf(r, zipfS, 1, numKeys-1)}
}

func (g *mixGen) next() genOp {
	p := g.r.Intn(100)
	op := genOp{a: int(g.z.Uint64())}
	switch {
	case p < 75:
		op.kind = weakInc
	case p < 85:
		op.kind = weakTxn
		op.b = int(g.z.Uint64())
	case p < 95:
		op.kind = strongInc
	default:
		op.kind = strongRead
	}
	return op
}

// ledger counts, per counter, the increments the system acknowledged and
// the increments of failed operations (which may or may not have landed).
type ledger struct {
	acked     [numKeys]int64
	uncertain [numKeys]int64
}

func (l *ledger) add(op genOp, ok bool) {
	dst := &l.acked
	if !ok {
		dst = &l.uncertain
	}
	switch op.kind {
	case weakInc, strongInc:
		dst[op.a]++
	case weakTxn:
		dst[op.a]++
		dst[op.b]++
	}
}

// boundSession is a session plus whether it carries guarantees.
type boundSession struct {
	s          *bayou.Session
	guaranteed bool
}

// samples holds one deployment's per-operation measurements.
type samples struct {
	weakMS     []float64 // weak Inc and Txn: Invoke to tentative response
	txnMS      []float64 // weak Txn only
	strongMS   []float64 // strong ops: Invoke to Wait returned
	readMS     []float64 // strong CtrGet only
	plainUS    []float64 // Invoke call span, weak Inc, plain session
	guarUS     []float64 // Invoke call span, weak Inc, guaranteed session
	weakCalls  []*bayou.Call
	attempted  int
	failed     int
	cycleNS    [2]int64 // closed-loop cycle time, [untraced, traced]
	cycleOps   [2]int64
	firstError error
}

// worker is one closed-loop client goroutine: a generator stream, the
// sessions it drives round-robin, and what it measured.
type worker struct {
	gen      *mixGen
	sessions []boundSession
	next     int
	led      ledger
	sm       samples
	tr       *traceBuf
	prevEnd  time.Time
}

// window describes the measured interval a worker runs in.
type window struct {
	start  time.Time
	traced bool // alternate span recording per traceSlice
}

func (w window) tracedAt(t time.Time) bool {
	return w.traced && (t.Sub(w.start).Nanoseconds()/traceSlice)%2 == 1
}

func (w *worker) pick() boundSession {
	s := w.sessions[w.next%len(w.sessions)]
	w.next++
	return s
}

// warm runs n untimed operations of the mix; they count in the ledger so
// that the correctness gate covers them.
func (w *worker) warm(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		op := w.gen.next()
		if _, _, err := invoke(ctx, w.pick(), op); err != nil {
			w.led.add(op, false)
			return fmt.Errorf("warm-up %s: %w", kindNames[op.kind], err)
		}
		w.led.add(op, true)
	}
	return nil
}

// invoke submits one operation and waits for its response: the tentative
// one for weak operations, the committed one for strong operations.
// It returns the call and the instant Invoke returned.
func invoke(ctx context.Context, bs boundSession, op genOp) (*bayou.Call, time.Time, error) {
	var call *bayou.Call
	var err error
	switch op.kind {
	case weakInc:
		call, err = bs.s.Invoke(bayou.Inc(keyNames[op.a], 1), bayou.Weak)
	case weakTxn:
		call, err = bs.s.Txn(bayou.Weak, bayou.Do(bayou.Inc(keyNames[op.a], 1)), bayou.Do(bayou.Inc(keyNames[op.b], 1)))
	case strongInc:
		call, err = bs.s.Invoke(bayou.Inc(keyNames[op.a], 1), bayou.Strong)
	case strongRead:
		call, err = bs.s.Invoke(bayou.CtrGet(keyNames[op.a]), bayou.Strong)
	}
	invoked := time.Now()
	if err != nil {
		return nil, invoked, err
	}
	// A weak call is normally done when Invoke returns; on a guaranteed
	// session it may park on coverage first.
	if !call.Done() {
		if _, err := bs.s.Wait(ctx); err != nil {
			return call, invoked, err
		}
	}
	return call, invoked, nil
}

// do runs one measured operation on the given session.
func (w *worker) do(ctx context.Context, win window, bs boundSession, op genOp) {
	t0 := time.Now()
	if w.prevEnd.IsZero() {
		w.prevEnd = t0
	}
	call, t1, err := invoke(ctx, bs, op)
	t2 := time.Now()
	w.sm.attempted++
	w.led.add(op, err == nil)
	traced := win.tracedAt(t0)
	if err != nil {
		w.sm.failed++
		if w.sm.firstError == nil {
			w.sm.firstError = fmt.Errorf("%s: %w", kindNames[op.kind], err)
		}
	} else {
		ms := float64(t2.Sub(t0).Nanoseconds()) / 1e6
		switch op.kind {
		case weakInc:
			w.sm.weakMS = append(w.sm.weakMS, ms)
			us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
			if bs.guaranteed {
				w.sm.guarUS = append(w.sm.guarUS, us)
			} else {
				w.sm.plainUS = append(w.sm.plainUS, us)
			}
			w.sm.weakCalls = append(w.sm.weakCalls, call)
		case weakTxn:
			w.sm.weakMS = append(w.sm.weakMS, ms)
			w.sm.txnMS = append(w.sm.txnMS, ms)
			w.sm.weakCalls = append(w.sm.weakCalls, call)
		case strongInc:
			w.sm.strongMS = append(w.sm.strongMS, ms)
		case strongRead:
			w.sm.strongMS = append(w.sm.strongMS, ms)
			w.sm.readMS = append(w.sm.readMS, ms)
		}
		if traced {
			w.tr.op(kindNames[op.kind], t0, t1, t2)
		}
	}
	// The cycle runs from the previous operation's end to this one's, so it
	// includes the generator's own work and, when tracing, the span appends.
	end := time.Now()
	m := 0
	if traced {
		m = 1
	}
	w.sm.cycleNS[m] += end.Sub(w.prevEnd).Nanoseconds()
	w.sm.cycleOps[m]++
	w.prevEnd = end
}

// loop drives the mix until the deadline or until quota operations ran
// (quota <= 0: no quota).
func (w *worker) loop(ctx context.Context, win window, deadline time.Time, quota int) {
	w.prevEnd = time.Time{}
	for n := 0; (quota <= 0 || n < quota) && time.Now().Before(deadline); n++ {
		w.do(ctx, win, w.pick(), w.gen.next())
	}
}
