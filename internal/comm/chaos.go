package comm

import (
	"fmt"
	"sort"

	"lowdiff/internal/obs"
)

// Chaos fault kinds, used as draw-stream discriminators so each decision
// for a given (rank, iteration) is independent.
const (
	chaosKindDrop = iota + 1
	chaosKindCorrupt
	chaosKindLate
	chaosKindBit
)

// Crash schedules the whole-worker crash of Rank at iteration Iter: from
// that retain on, the rank's window is cleared and never refills, exactly
// as if the process had died with its replica memory.
type Crash struct {
	Rank int
	Iter int64
}

// ChaosConfig selects which peer-payload faults a chaos-wrapped Peers
// injects. Probabilities are per retain in [0, 1]; zero disables that
// fault. Decisions are stateless hashes of (seed, rank, iteration, kind),
// so a given seed reproduces the exact same fault pattern regardless of
// the interleaving of concurrent ranks — chaos runs are replayable even
// under the race detector.
type ChaosConfig struct {
	Seed uint64

	// DropProb loses a peer payload in flight: the retain never lands and
	// the window keeps a hole at that iteration.
	DropProb float64
	// CorruptProb flips one bit of the retained copy (the original
	// synchronized gradient is untouched), so the window entry exists but
	// its checksum no longer verifies.
	CorruptProb float64
	// LateProb delays a payload by one iteration: it only becomes visible
	// in the window when the next retain for that rank arrives. Coverage
	// checks in between see a transient hole.
	LateProb float64

	// Crashes schedules whole-worker crashes (rank + iteration).
	Crashes []Crash

	// Events, when non-nil, receives a chaos.peer_* event per injected
	// fault, so injections line up with the engine's degradation events.
	Events *obs.EventLog
}

func (c ChaosConfig) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropProb", c.DropProb},
		{"CorruptProb", c.CorruptProb},
		{"LateProb", c.LateProb},
	} {
		if !(0 <= p.v && p.v <= 1) { // NaN fails both
			return fmt.Errorf("comm: chaos %s = %v out of [0,1]", p.name, p.v)
		}
	}
	for _, cr := range c.Crashes {
		if cr.Rank < 0 {
			return fmt.Errorf("comm: chaos crash rank %d must be >= 0", cr.Rank)
		}
		if cr.Iter < 1 {
			return fmt.Errorf("comm: chaos crash iteration %d must be >= 1", cr.Iter)
		}
	}
	return nil
}

// ChaosCounters is a snapshot of the peer faults a Chaos has injected.
type ChaosCounters struct {
	Drops       int64 // payloads lost in flight
	Corruptions int64 // retained copies bit-flipped
	LateRetains int64 // payloads delayed by one iteration
	Crashes     int64 // whole-worker crashes triggered
}

// Chaos injects seeded, deterministic faults into peer-window retains:
// dropped payloads, bit-flipped retained copies, late arrivals, and
// scheduled whole-worker crashes. It is the peer-replication counterpart
// of storage.Chaos.
type Chaos struct {
	cfg     ChaosConfig
	crashAt map[int]int64 // rank → earliest scheduled crash iteration

	drops       obs.Counter
	corruptions obs.Counter
	late        obs.Counter
	crashes     obs.Counter
}

// Counters returns a snapshot of the injected-fault counters.
func (c *Chaos) Counters() ChaosCounters {
	return ChaosCounters{
		Drops:       c.drops.Value(),
		Corruptions: c.corruptions.Value(),
		LateRetains: c.late.Value(),
		Crashes:     c.crashes.Value(),
	}
}

// NewChaos validates the configuration and builds the injector.
func NewChaos(cfg ChaosConfig) (*Chaos, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	crashAt := make(map[int]int64, len(cfg.Crashes))
	for _, cr := range cfg.Crashes {
		if at, ok := crashAt[cr.Rank]; !ok || cr.Iter < at {
			crashAt[cr.Rank] = cr.Iter
		}
	}
	return &Chaos{cfg: cfg, crashAt: crashAt}, nil
}

// mix is SplitMix64's finalizer over a combined key: a stateless hash, so
// concurrent ranks drawing decisions never contend or perturb each other's
// streams.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw decides one fault with probability p for (rank, iter, kind).
func (c *Chaos) draw(p float64, rank int, iter int64, kind uint64) bool {
	if p <= 0 {
		return false
	}
	key := mix(mix(mix(c.cfg.Seed^kind)^uint64(rank)) ^ uint64(iter))
	return float64(key>>11)/(1<<53) < p
}

// crashesAt reports whether rank has a scheduled crash at or before iter.
func (c *Chaos) crashesAt(rank int, iter int64) bool {
	at, ok := c.crashAt[rank]
	return ok && iter >= at
}

// CrashSchedule returns the scheduled crashes sorted by iteration then rank
// (for reports and the chaos-matrix smoke tests).
func (c *Chaos) CrashSchedule() []Crash {
	out := append([]Crash(nil), c.cfg.Crashes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Iter != out[j].Iter {
			return out[i].Iter < out[j].Iter
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}
