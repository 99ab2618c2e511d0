package sim

import (
	"testing"
	"testing/quick"

	"lowdiff/internal/tensor"
)

func TestResourceSerialQueue(t *testing.T) {
	r, err := NewResource("ssd", 100) // 100 B/s
	if err != nil {
		t.Fatal(err)
	}
	// First transfer at t=0: 200 B -> finishes at 2.
	fin, err := r.Submit(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if fin != 2 {
		t.Fatalf("finish = %v, want 2", fin)
	}
	// Second submitted at t=1 while busy: starts at 2, 100 B -> 3.
	fin, _ = r.Submit(1, 100)
	if fin != 3 {
		t.Fatalf("finish = %v, want 3", fin)
	}
	if got := r.Backlog(1); got != 2 {
		t.Fatalf("backlog = %v, want 2", got)
	}
	// Submitted after idle gap: starts immediately.
	fin, _ = r.Submit(10, 50)
	if fin != 10.5 {
		t.Fatalf("finish = %v, want 10.5", fin)
	}
	if r.Backlog(11) != 0 {
		t.Fatalf("backlog after idle = %v", r.Backlog(11))
	}
	if r.BusySeconds() != 3.5 {
		t.Fatalf("busy = %v, want 3.5", r.BusySeconds())
	}
	r.Reset()
	if r.BusySeconds() != 0 || r.Backlog(0) != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestResourceValidation(t *testing.T) {
	if _, err := NewResource("x", 0); err == nil {
		t.Fatal("want bandwidth error")
	}
	r, _ := NewResource("x", 1)
	if _, err := r.Submit(0, -1); err == nil {
		t.Fatal("want negative-size error")
	}
}

// Property: a resource never starts a transfer before submission and keeps
// FIFO completion order.
func TestResourceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		r, _ := NewResource("x", 1+1000*rng.Float64())
		now := 0.0
		prevFin := 0.0
		for i := 0; i < 100; i++ {
			now += rng.Float64()
			fin, err := r.Submit(now, rng.Float64()*1000)
			if err != nil {
				return false
			}
			if fin < now || fin < prevFin {
				return false
			}
			prevFin = fin
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
