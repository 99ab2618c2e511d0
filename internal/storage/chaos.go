package storage

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lowdiff/internal/obs"
	"lowdiff/internal/tensor"
)

// ErrInjectedFault is the error of every write a Chaos store fails.
var ErrInjectedFault = fmt.Errorf("storage: injected fault")

// ChaosConfig selects which faults a Chaos store injects and how often.
// All probabilities are per operation in [0, 1]; zero disables that fault.
// Injection is driven by a seeded SplitMix64 generator consumed once per
// decision, so a given seed and operation sequence reproduces the exact
// same fault pattern — chaos runs are replayable.
type ChaosConfig struct {
	Seed uint64

	// WriteFailProb injects transient write failures: the returned writer
	// fails with ErrInjectedFault, nothing becomes visible, and the next
	// attempt draws fresh. This models a flaky device or network blip.
	WriteFailProb float64
	// FailWritesAfter, when positive, makes every write attempt after the
	// Nth fail permanently (the device died mid-job). Zero disables.
	FailWritesAfter int
	// BitFlipWriteProb corrupts a persisted object: one bit of the
	// committed payload is flipped, so the object exists but its CRC no
	// longer verifies. The corruption is durable (visible to every read).
	BitFlipWriteProb float64
	// TornReadProb makes a read return a strict prefix of the object (a
	// torn/short read), as if the file were truncated mid-transfer.
	TornReadProb float64
	// BitFlipReadProb flips one bit of the data a single read observes.
	// The stored object is unchanged; a retry sees clean bytes.
	BitFlipReadProb float64
	// LatencyProb stalls an operation for Latency (a latency spike).
	LatencyProb float64
	Latency     time.Duration
	// Sleep is the latency seam (nil uses time.Sleep).
	Sleep func(time.Duration)

	// Events, when non-nil, receives a chaos.* event for every injected
	// fault (object name + fault kind), so injections line up with the
	// engine's retry/fallback/degradation events in one stream.
	Events *obs.EventLog
}

func (c ChaosConfig) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"WriteFailProb", c.WriteFailProb},
		{"BitFlipWriteProb", c.BitFlipWriteProb},
		{"TornReadProb", c.TornReadProb},
		{"BitFlipReadProb", c.BitFlipReadProb},
		{"LatencyProb", c.LatencyProb},
	} {
		if !(0 <= p.v && p.v <= 1) { // NaN fails both
			return fmt.Errorf("storage: chaos %s = %v out of [0,1]", p.name, p.v)
		}
	}
	if c.FailWritesAfter < 0 {
		return fmt.Errorf("storage: chaos FailWritesAfter %d must be >= 0", c.FailWritesAfter)
	}
	return nil
}

// ChaosCounters is a snapshot of the faults a Chaos store has injected.
type ChaosCounters struct {
	WriteFaults    int64 // writes rejected (transient + permanent)
	WriteBitFlips  int64 // objects persisted with a flipped bit
	TornReads      int64 // reads truncated to a prefix
	ReadBitFlips   int64 // reads that observed a flipped bit
	LatencySpikes  int64 // operations stalled
	WriteAttempts  int64 // total Create calls
	PermanentFault bool  // the FailWritesAfter budget has been exhausted
}

// Chaos wraps a store with seeded, deterministic fault injection spanning
// the failure modes a checkpointing system must survive: transient and
// permanent write failures, torn reads, bit-flip corruption (both durable,
// at write time, and transient, at read time), and latency spikes. It is
// an Interposer whose Writer and Reader hooks draw each Create's and Open's
// faults before the inner store is reached.
type Chaos struct {
	Interposer
	cfg ChaosConfig

	mu     sync.Mutex
	rng    *tensor.RNG // the seeded decision stream
	writes int         // Create attempts so far

	writeFaults   atomic.Int64
	writeBitFlips atomic.Int64
	tornReads     atomic.Int64
	readBitFlips  atomic.Int64
	latencySpikes atomic.Int64
}

// NewChaos wraps s with the configured fault injection.
func NewChaos(s Store, cfg ChaosConfig) (*Chaos, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	c := &Chaos{cfg: cfg, rng: tensor.NewRNG(cfg.Seed)}
	c.Interposer = Interposer{Store: s, Writer: c.writer, Reader: c.reader}
	return c, nil
}

// Counters returns a snapshot of the injected-fault counters.
func (c *Chaos) Counters() ChaosCounters {
	c.mu.Lock()
	writes := c.writes
	permanent := c.cfg.FailWritesAfter > 0 && writes > c.cfg.FailWritesAfter
	c.mu.Unlock()
	return ChaosCounters{
		WriteFaults:    c.writeFaults.Load(),
		WriteBitFlips:  c.writeBitFlips.Load(),
		TornReads:      c.tornReads.Load(),
		ReadBitFlips:   c.readBitFlips.Load(),
		LatencySpikes:  c.latencySpikes.Load(),
		WriteAttempts:  int64(writes),
		PermanentFault: permanent,
	}
}

// draw consumes one decision with probability p (callers hold c.mu).
func (c *Chaos) draw(p float64) bool {
	if p <= 0 {
		return false
	}
	return c.rng.Float64() < p
}

// pick draws a position below n.
func (c *Chaos) pick(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

// flipBit flips one drawn bit of data in place.
func (c *Chaos) flipBit(data []byte) {
	bit := c.pick(8 * len(data))
	data[bit/8] ^= 1 << (bit % 8)
}

func (c *Chaos) spike(name, op string) {
	c.latencySpikes.Add(1)
	c.cfg.Events.Emit("chaos.latency", map[string]any{"object": name, "op": op})
	c.cfg.Sleep(c.cfg.Latency)
}

// writer is the Create hook. Fault decisions are drawn before the inner
// store is reached, so the injected outcome is fixed per attempt.
func (c *Chaos) writer(name string, create func() (io.WriteCloser, error)) (io.WriteCloser, error) {
	c.mu.Lock()
	c.writes++
	permanent := c.cfg.FailWritesAfter > 0 && c.writes > c.cfg.FailWritesAfter
	transient := !permanent && c.draw(c.cfg.WriteFailProb)
	flip := !permanent && !transient && c.draw(c.cfg.BitFlipWriteProb)
	stall := c.draw(c.cfg.LatencyProb)
	c.mu.Unlock()
	if stall {
		c.spike(name, "write")
	}
	if permanent || transient {
		c.writeFaults.Add(1)
		c.cfg.Events.Emit("chaos.write_fault", map[string]any{"object": name, "permanent": permanent})
		return doomedWriter{}, nil
	}
	if flip {
		return &flipWriter{c: c, name: name}, nil
	}
	return create()
}

// doomedWriter is a write that never reaches the device: Write and Close
// fail, nothing becomes visible, and Abort has nothing to discard.
type doomedWriter struct{}

func (doomedWriter) Write([]byte) (int, error) { return 0, ErrInjectedFault }
func (doomedWriter) Close() error              { return ErrInjectedFault }
func (doomedWriter) Abort() error              { return nil }

// flipWriter buffers the object so one bit of the committed payload can be
// flipped before it reaches the wrapped store.
type flipWriter struct {
	buf    bytes.Buffer
	c      *Chaos
	name   string
	closed bool
}

func (w *flipWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("storage: write after close")
	}
	return w.buf.Write(p)
}

func (w *flipWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	data := w.buf.Bytes()
	if len(data) > 0 {
		w.c.flipBit(data)
		w.c.writeBitFlips.Add(1)
		w.c.cfg.Events.Emit("chaos.write_bitflip", map[string]any{"object": w.name})
	}
	return WriteObject(w.c.Store, w.name, data)
}

// Abort discards the buffered object; nothing reaches the wrapped store.
func (w *flipWriter) Abort() error {
	w.closed = true
	return nil
}

// reader is the Open hook. Torn and bit-flipped reads affect only the bytes
// this call observes; the stored object is untouched, so retries can
// distinguish transient read faults from durable corruption.
func (c *Chaos) reader(name string, open func() (io.ReadCloser, error)) (io.ReadCloser, error) {
	c.mu.Lock()
	torn := c.draw(c.cfg.TornReadProb)
	flip := !torn && c.draw(c.cfg.BitFlipReadProb)
	stall := c.draw(c.cfg.LatencyProb)
	c.mu.Unlock()
	if stall {
		c.spike(name, "read")
	}
	r, err := open()
	if err != nil || (!torn && !flip) {
		return r, err
	}
	data, err := io.ReadAll(r)
	_ = r.Close() // fully drained; the data, not the close, decides the fault
	if err != nil {
		return nil, err
	}
	if torn && len(data) > 0 {
		data = data[:c.pick(len(data))]
		c.tornReads.Add(1)
		c.cfg.Events.Emit("chaos.torn_read", map[string]any{"object": name})
	} else if flip && len(data) > 0 {
		c.flipBit(data)
		c.readBitFlips.Add(1)
		c.cfg.Events.Emit("chaos.read_bitflip", map[string]any{"object": name})
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}
