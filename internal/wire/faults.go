package wire

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FaultConfig parametrizes the seeded frame-level fault injector attached
// to peer links: per-frame probabilities of dropping, duplicating,
// delaying, reordering, bit-flipping, or truncating (with a mid-frame
// connection reset) outbound frames. All corruption is *detectable* — the
// per-frame CRC32C turns a flipped bit into a torn connection, never a
// misdecoded envelope, and a dropped, duplicated or reordered frame that
// introduced a type to the connection's gob stream makes the receiver's
// next decode fail the same way (ErrCorrupt) — and all loss is
// *repairable* by the resync handshake and the anti-entropy tick, in the
// second case after a redial, so a chaos deployment converges through the
// same machinery a lossy real network would exercise.
//
// Probabilities are per frame, in [0,1]; they are evaluated in the order
// drop, reorder, flip, truncate, dup (first hit wins), and delay composes
// with any of them. The zero config injects nothing.
type FaultConfig struct {
	Seed     int64         // decision stream seed (required for replay)
	Drop     float64       // silently discard the frame
	Dup      float64       // deliver the frame twice
	Reorder  float64       // hold the frame behind the next one
	Flip     float64       // flip one body bit (CRC-detected at the receiver)
	Truncate float64       // write a prefix, then reset the connection
	Delay    float64       // sleep before writing
	DelayMax time.Duration // upper bound of an injected delay
}

// Enabled reports whether the config injects anything at all.
func (c FaultConfig) Enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Reorder > 0 || c.Flip > 0 || c.Truncate > 0 || c.Delay > 0
}

// ParseFaults parses the -chaos flag syntax: comma-separated key=value
// pairs, e.g.
//
//	drop=0.02,dup=0.02,reorder=0.02,flip=0.01,trunc=0.005,delay=0.05,delaymax=5ms
//
// Probability keys take floats in [0,1]; delaymax takes a Go duration. The
// seed is plumbed separately (the node's -seed flag) so one seed governs
// every stochastic choice a node makes.
func ParseFaults(spec string, seed int64) (FaultConfig, error) {
	cfg := FaultConfig{Seed: seed}
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("wire: chaos spec %q: want key=value", kv)
		}
		if k == "delaymax" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return cfg, fmt.Errorf("wire: chaos delaymax %q: %w", v, err)
			}
			cfg.DelayMax = d
			continue
		}
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 || p > 1 {
			return cfg, fmt.Errorf("wire: chaos %s=%q: want a probability in [0,1]", k, v)
		}
		switch k {
		case "drop":
			cfg.Drop = p
		case "dup":
			cfg.Dup = p
		case "reorder":
			cfg.Reorder = p
		case "flip":
			cfg.Flip = p
		case "trunc", "truncate":
			cfg.Truncate = p
		case "delay":
			cfg.Delay = p
		default:
			return cfg, fmt.Errorf("wire: chaos spec: unknown key %q", k)
		}
	}
	if cfg.Delay > 0 && cfg.DelayMax == 0 {
		cfg.DelayMax = 5 * time.Millisecond
	}
	return cfg, nil
}

// faultAction is the injector's verdict for one frame.
type faultAction int

const (
	faultDeliver faultAction = iota
	faultDrop
	faultDup
	faultReorder
	faultFlip
	faultTruncate
)

// faultDecision is one frame's fate: what to do, where (flip/truncate
// offset material), and how long to stall first.
type faultDecision struct {
	action faultAction
	offset int
	delay  time.Duration
}

// Faults is one link's seeded decision stream. Each link gets its own
// (seed derived from the node seed and the peer id), so a schedule is a
// pure function of the deployment seed regardless of goroutine timing on
// other links.
type Faults struct {
	cfg FaultConfig

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu
}

// NewFaults builds an injector from a config; nil when the config injects
// nothing, so callers can attach the result unconditionally.
func NewFaults(cfg FaultConfig) *Faults {
	if !cfg.Enabled() {
		return nil
	}
	return &Faults{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Derive builds an injector whose decision stream is offset from the base
// config's seed — one per peer link.
func (c FaultConfig) Derive(offset int64) *Faults {
	d := c
	d.Seed = c.Seed*1_000_003 + offset
	return NewFaults(d)
}

// decide rolls one frame's fate.
func (f *Faults) decide(frameLen int) faultDecision {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := faultDecision{action: faultDeliver}
	if f.cfg.Delay > 0 && f.rng.Float64() < f.cfg.Delay {
		d.delay = time.Duration(f.rng.Int63n(int64(f.cfg.DelayMax) + 1))
	}
	roll := f.rng.Float64()
	switch {
	case roll < f.cfg.Drop:
		d.action = faultDrop
	case roll < f.cfg.Drop+f.cfg.Reorder:
		d.action = faultReorder
	case roll < f.cfg.Drop+f.cfg.Reorder+f.cfg.Flip:
		d.action = faultFlip
		d.offset = f.rng.Intn(frameLen)
	case roll < f.cfg.Drop+f.cfg.Reorder+f.cfg.Flip+f.cfg.Truncate:
		d.action = faultTruncate
		d.offset = f.rng.Intn(frameLen)
	case roll < f.cfg.Drop+f.cfg.Reorder+f.cfg.Flip+f.cfg.Truncate+f.cfg.Dup:
		d.action = faultDup
	}
	return d
}

// jitter returns a multiplicative jitter factor in [0.5, 1.5) from the
// injector-independent backoff stream; see Link. It lives here so the
// seeded rand plumbing stays in one place.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	if rng == nil || d <= 0 {
		return d
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}
