package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestChaosConfigValidation(t *testing.T) {
	if _, err := NewChaos(NewMem(), ChaosConfig{WriteFailProb: 1.5}); err == nil {
		t.Fatal("want probability-range error")
	}
	if _, err := NewChaos(NewMem(), ChaosConfig{TornReadProb: -0.1}); err == nil {
		t.Fatal("want probability-range error")
	}
	if _, err := NewChaos(NewMem(), ChaosConfig{LatencyProb: math.NaN()}); err == nil {
		t.Fatal("want probability-range error for NaN")
	}
	if _, err := NewChaos(NewMem(), ChaosConfig{FailWritesAfter: -1}); err == nil {
		t.Fatal("want negative-budget error")
	}
}

func TestChaosPassthroughWithoutFaults(t *testing.T) {
	c, err := NewChaos(NewMem(), ChaosConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteObject(c, "a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := ReadObject(c, "a")
	if err != nil || string(data) != "hello" {
		t.Fatalf("read %q, %v", data, err)
	}
	if got := c.Counters(); got != (ChaosCounters{WriteAttempts: 1}) {
		t.Fatalf("clean store injected faults: %+v", got)
	}
}

func TestChaosTransientWriteFaults(t *testing.T) {
	c, err := NewChaos(NewMem(), ChaosConfig{Seed: 7, WriteFailProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var failed, ok int
	for i := 0; i < 40; i++ {
		err := WriteObject(c, "obj", []byte("x"))
		if err == nil {
			ok++
		} else if errors.Is(err, ErrInjectedFault) {
			failed++
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if failed == 0 || ok == 0 {
		t.Fatalf("p=0.5 over 40 writes: %d failed, %d ok; want both", failed, ok)
	}
	if got := c.Counters().WriteFaults; got != int64(failed) {
		t.Fatalf("WriteFaults = %d, observed %d failures", got, failed)
	}
	// A failed write leaves nothing visible; the last outcome decides.
	if ok > 0 {
		if _, err := ReadObject(c, "obj"); err != nil {
			t.Fatalf("object vanished: %v", err)
		}
	}
}

func TestChaosDeterministicReplay(t *testing.T) {
	run := func() []bool {
		c, err := NewChaos(NewMem(), ChaosConfig{Seed: 99, WriteFailProb: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		var outcomes []bool
		for i := 0; i < 30; i++ {
			outcomes = append(outcomes, WriteObject(c, "o", []byte("x")) == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
}

// TestChaosDecisionSequencePinned pins a seeded Chaos store's whole decision
// stream: every write, flip, stall, torn-read and read-flip draw and every
// drawn bit position or prefix length, in order.
func TestChaosDecisionSequencePinned(t *testing.T) {
	mem := NewMem()
	orig := []byte("0123456789abcdef")
	if err := WriteObject(mem, "base", orig); err != nil {
		t.Fatal(err)
	}
	stalls := 0
	c, err := NewChaos(mem, ChaosConfig{
		Seed: 2024, WriteFailProb: 0.3, BitFlipWriteProb: 0.3,
		TornReadProb: 0.3, BitFlipReadProb: 0.3, LatencyProb: 0.2,
		Sleep: func(time.Duration) { stalls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	note := func(outcome string, before int) {
		if stalls > before {
			outcome += "+stall"
		}
		got = append(got, outcome)
	}
	for i := 0; i < 16; i++ {
		before, name := stalls, fmt.Sprintf("o%d", i)
		switch err := WriteObject(c, name, orig); {
		case errors.Is(err, ErrInjectedFault):
			note("fault", before)
		case err != nil:
			t.Fatal(err)
		default:
			stored, err := ReadObject(mem, name)
			if err != nil {
				t.Fatal(err)
			}
			note(fmt.Sprintf("w%d", flippedBit(orig, stored)), before)
		}
		before = stalls
		data, err := ReadObject(c, "base")
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < len(orig) {
			note(fmt.Sprintf("torn%d", len(data)), before)
		} else {
			note(fmt.Sprintf("r%d", flippedBit(orig, data)), before)
		}
	}
	want := []string{
		"w89", "r-1+stall", "w57", "r-1", "fault", "r-1", "w-1", "torn7",
		"w-1", "torn4+stall", "fault", "torn1+stall", "w-1", "r-1", "fault", "r-1",
		"fault", "r61", "fault", "torn2", "w-1", "r-1", "w-1", "r-1",
		"fault", "torn2", "w-1+stall", "r-1", "w-1", "r-1", "w40", "r124",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decision sequence\n got %#v\nwant %#v", got, want)
	}
}

// flippedBit returns the first bit position where a and b differ, or -1.
func flippedBit(a, b []byte) int {
	for i := range a {
		if x := a[i] ^ b[i]; x != 0 {
			for bit := 0; bit < 8; bit++ {
				if x>>bit&1 == 1 {
					return 8*i + bit
				}
			}
		}
	}
	return -1
}

func TestChaosPermanentFault(t *testing.T) {
	c, err := NewChaos(NewMem(), ChaosConfig{Seed: 3, FailWritesAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := WriteObject(c, "a", []byte("1")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := WriteObject(c, "b", []byte("2")); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("write after budget: %v, want injected fault", err)
		}
	}
	if got := c.Counters(); !got.PermanentFault || got.WriteFaults != 5 {
		t.Fatalf("counters: %+v", got)
	}
	// Reads survive the dead device.
	if data, err := ReadObject(c, "a"); err != nil || string(data) != "1" {
		t.Fatalf("read after permanent fault: %q, %v", data, err)
	}
}

// A rejected write never reaches the device: its writer fails both Write and
// Close, its Abort has nothing to discard, and nothing becomes visible.
func TestChaosDoomedWriterBothOpsFail(t *testing.T) {
	c, err := NewChaos(NewMem(), ChaosConfig{FailWritesAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteObject(c, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		w, err := c.Create("x")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("y")); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("write err = %v", err)
		}
		if i == 0 {
			if err := w.Close(); !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("close err = %v", err)
			}
		} else if err := AbortWriter(w); err != nil {
			t.Fatalf("abort err = %v", err)
		}
	}
	if names, _ := c.List(""); len(names) != 1 {
		t.Fatalf("store holds %v, want only a", names)
	}
}

func TestChaosTornRead(t *testing.T) {
	mem := NewMem()
	orig := []byte("0123456789abcdef")
	if err := WriteObject(mem, "a", orig); err != nil {
		t.Fatal(err)
	}
	c, err := NewChaos(mem, ChaosConfig{Seed: 5, TornReadProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ReadObject(c, "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(orig) {
		t.Fatalf("torn read returned %d bytes of %d", len(data), len(orig))
	}
	if !bytes.Equal(data, orig[:len(data)]) {
		t.Fatal("torn read is not a prefix")
	}
	if c.Counters().TornReads != 1 {
		t.Fatalf("counters: %+v", c.Counters())
	}
	// The stored object is untouched.
	clean, err := ReadObject(mem, "a")
	if err != nil || !bytes.Equal(clean, orig) {
		t.Fatal("torn read mutated the store")
	}
}

func TestChaosReadBitFlipIsTransient(t *testing.T) {
	mem := NewMem()
	orig := []byte("0123456789abcdef")
	if err := WriteObject(mem, "a", orig); err != nil {
		t.Fatal(err)
	}
	c, err := NewChaos(mem, ChaosConfig{Seed: 11, BitFlipReadProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ReadObject(c, "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(orig) {
		t.Fatalf("flip changed length: %d != %d", len(data), len(orig))
	}
	diff := 0
	for i := range data {
		for b := 0; b < 8; b++ {
			if (data[i]^orig[i])>>b&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", diff)
	}
	// The store still holds clean bytes.
	clean, err := ReadObject(mem, "a")
	if err != nil || !bytes.Equal(clean, orig) {
		t.Fatal("read-side flip mutated the store")
	}
}

func TestChaosWriteBitFlipIsDurable(t *testing.T) {
	mem := NewMem()
	c, err := NewChaos(mem, ChaosConfig{Seed: 13, BitFlipWriteProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	orig := []byte("0123456789abcdef")
	if err := WriteObject(c, "a", orig); err != nil {
		t.Fatal(err)
	}
	stored, err := ReadObject(mem, "a")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(stored, orig) {
		t.Fatal("write-side flip did not corrupt the object")
	}
	if c.Counters().WriteBitFlips != 1 {
		t.Fatalf("counters: %+v", c.Counters())
	}
}

func TestChaosLatencySpikes(t *testing.T) {
	var slept time.Duration
	c, err := NewChaos(NewMem(), ChaosConfig{
		Seed: 17, LatencyProb: 1, Latency: 25 * time.Millisecond,
		Sleep: func(d time.Duration) { slept += d },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteObject(c, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadObject(c, "a"); err != nil {
		t.Fatal(err)
	}
	if c.Counters().LatencySpikes != 2 || slept != 50*time.Millisecond {
		t.Fatalf("spikes=%d slept=%v", c.Counters().LatencySpikes, slept)
	}
}
