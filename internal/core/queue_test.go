package core

import (
	"sync"
	"testing"
	"time"

	"lowdiff/internal/compress"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
)

func testGrad(n int, v float32) *compress.Compressed {
	return &compress.Compressed{Codec: "topk", N: n, Idx: []int32{0}, Vals: []float32{v}}
}

func TestQueueValidation(t *testing.T) {
	if _, err := NewReusingQueue(0); err == nil {
		t.Fatal("want capacity error")
	}
	q, err := NewReusingQueue(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Put(Item{Iter: 1}); err == nil {
		t.Fatal("want nil-gradient error")
	}
	if q.Cap() != 2 {
		t.Fatalf("Cap = %d", q.Cap())
	}
}

func TestQueueFIFO(t *testing.T) {
	q, _ := NewReusingQueue(10)
	for i := 1; i <= 5; i++ {
		if err := q.Put(Item{Iter: int64(i), Layer: -1, Grad: testGrad(4, float32(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		it, err := q.Get()
		if err != nil {
			t.Fatal(err)
		}
		if it.Iter != int64(i) {
			t.Fatalf("got iter %d, want %d (FIFO violated)", it.Iter, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestQueueZeroCopy(t *testing.T) {
	q, _ := NewReusingQueue(1)
	g := testGrad(4, 7)
	if err := q.Put(Item{Iter: 1, Layer: -1, Grad: g}); err != nil {
		t.Fatal(err)
	}
	it, err := q.Get()
	if err != nil {
		t.Fatal(err)
	}
	if it.Grad != g {
		t.Fatal("queue must hand off the same pointer (zero-copy)")
	}
}

func TestQueueBackPressure(t *testing.T) {
	q, _ := NewReusingQueue(1)
	if err := q.Put(Item{Iter: 1, Layer: -1, Grad: testGrad(4, 1)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- q.Put(Item{Iter: 2, Layer: -1, Grad: testGrad(4, 2)}) // must block
	}()
	select {
	case <-done:
		t.Fatal("Put on a full queue returned without a consumer")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := q.Get(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked Put never completed after space opened")
	}
	if q.BlockedPuts.Value() != 1 {
		t.Fatalf("BlockedPuts = %d, want 1", q.BlockedPuts.Value())
	}
}

func TestQueueCloseUnblocksPut(t *testing.T) {
	q, _ := NewReusingQueue(1)
	_ = q.Put(Item{Iter: 1, Layer: -1, Grad: testGrad(4, 1)})
	done := make(chan error, 1)
	go func() { done <- q.Put(Item{Iter: 2, Layer: -1, Grad: testGrad(4, 2)}) }()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case err := <-done:
		if err != ErrQueueClosed {
			t.Fatalf("blocked Put returned %v, want ErrQueueClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock Put")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q, _ := NewReusingQueue(4)
	_ = q.Put(Item{Iter: 1, Layer: -1, Grad: testGrad(4, 1)})
	_ = q.Put(Item{Iter: 2, Layer: -1, Grad: testGrad(4, 2)})
	q.Close()
	if err := q.Put(Item{Iter: 3, Layer: -1, Grad: testGrad(4, 3)}); err != ErrQueueClosed {
		t.Fatalf("Put after close = %v", err)
	}
	// Remaining items still drain in order.
	it, err := q.Get()
	if err != nil || it.Iter != 1 {
		t.Fatalf("drain 1: %v %v", it, err)
	}
	it, err = q.Get()
	if err != nil || it.Iter != 2 {
		t.Fatalf("drain 2: %v %v", it, err)
	}
	if _, err := q.Get(); err != ErrQueueClosed {
		t.Fatalf("Get after drain = %v, want ErrQueueClosed", err)
	}
	q.Close() // idempotent
}

func TestQueueCloseUnblocksGet(t *testing.T) {
	q, _ := NewReusingQueue(1)
	done := make(chan error, 1)
	go func() {
		_, err := q.Get()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case err := <-done:
		if err != ErrQueueClosed {
			t.Fatalf("Get returned %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock Get")
	}
}

func TestQueueTryGet(t *testing.T) {
	q, _ := NewReusingQueue(2)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	_ = q.Put(Item{Iter: 1, Layer: -1, Grad: testGrad(4, 1)})
	it, ok := q.TryGet()
	if !ok || it.Iter != 1 {
		t.Fatalf("TryGet = %v, %v", it, ok)
	}
}

func TestQueueConcurrentProducerConsumer(t *testing.T) {
	q, _ := NewReusingQueue(4)
	const n = 500
	var got []int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			if err := q.Put(Item{Iter: int64(i), Layer: -1, Grad: testGrad(4, 1)}); err != nil {
				t.Error(err)
				return
			}
		}
		q.Close()
	}()
	go func() {
		defer wg.Done()
		for {
			it, err := q.Get()
			if err != nil {
				return
			}
			got = append(got, it.Iter)
		}
	}()
	wg.Wait()
	if len(got) != n {
		t.Fatalf("consumed %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("order violated at %d: %d", i, v)
		}
	}
	if q.Puts.Value() != n || q.Gets.Value() != n {
		t.Fatalf("counters: puts=%d gets=%d", q.Puts.Value(), q.Gets.Value())
	}
	if q.Depth.High() > 4 {
		t.Fatalf("depth high-water %d exceeds capacity", q.Depth.High())
	}
}

// The bound holds end to end: against a store too slow to keep up, the
// engine's reusing queue back-pressures training instead of growing past
// QueueCap, so retained gradients stay bounded (the paper's Limitation 2).
func TestEngineQueueHighWaterWithinCap(t *testing.T) {
	for _, queueCap := range []int{1, 4} {
		// ~190-byte differentials at 100 kB/s: each write takes ~2 ms,
		// far longer than a step of this model.
		slow, err := storage.NewThrottled(storage.NewMem(), 100e3)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(Options{
			Spec: model.Tiny(2, 128), Workers: 1, Rho: 0.05, Store: slow,
			FullEvery: 1000, BatchSize: 1, QueueCap: queueCap, Seed: 22,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.Run(30)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if stats.QueueHighMark > int64(queueCap) {
			t.Fatalf("cap %d: queue high-water %d exceeds the cap", queueCap, stats.QueueHighMark)
		}
		if queueCap == 1 && (stats.QueueHighMark != 1 || stats.BlockedPuts == 0) {
			t.Fatalf("cap 1: high-water %d, %d blocked puts; want 1 and > 0", stats.QueueHighMark, stats.BlockedPuts)
		}
	}
}
