package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"

	"lowdiff/internal/allocgate"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("want error for zero workers")
	}
	if _, err := New(-3); err == nil {
		t.Fatal("want error for negative workers")
	}
	if _, err := NewWithChunk(2, 0); err == nil {
		t.Fatal("want error for zero chunk")
	}
	p, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 4 || p.ChunkSize() != DefaultChunk {
		t.Fatalf("Workers=%d ChunkSize=%d", p.Workers(), p.ChunkSize())
	}
}

func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers = %d, want 1", p.Workers())
	}
	if p.ChunkSize() != DefaultChunk {
		t.Fatalf("nil pool ChunkSize = %d", p.ChunkSize())
	}
	n := 3*DefaultChunk + 17
	seen := make([]int, n)
	p.ForEach(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestGridDependsOnlyOnN(t *testing.T) {
	a, _ := NewWithChunk(1, 64)
	b, _ := NewWithChunk(7, 64)
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		if a.NumChunks(n) != b.NumChunks(n) {
			t.Fatalf("n=%d: chunk counts differ across worker counts", n)
		}
		for i := 0; i < a.NumChunks(n); i++ {
			alo, ahi := a.Bounds(i, n)
			blo, bhi := b.Bounds(i, n)
			if alo != blo || ahi != bhi {
				t.Fatalf("n=%d shard %d: bounds differ across worker counts", n, i)
			}
		}
	}
	if a.NumChunks(129) != 3 {
		t.Fatalf("NumChunks(129) = %d, want 3", a.NumChunks(129))
	}
	lo, hi := a.Bounds(2, 129)
	if lo != 128 || hi != 129 {
		t.Fatalf("tail shard = [%d,%d), want [128,129)", lo, hi)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
		p, err := NewWithChunk(workers, 97)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 96, 97, 98, 5000} {
			seen := make([]atomic.Int32, n)
			p.ForEach(n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestShardOrderCombineIsBitExact exercises the pattern every consumer
// uses: per-shard partial results combined in ascending shard order must
// equal the serial reference bit for bit, at any worker count.
func TestShardOrderCombineIsBitExact(t *testing.T) {
	const n = 10_000
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i%17) * 0.25
	}
	serialMax := float32(0)
	for _, v := range vals {
		if v > serialMax {
			serialMax = v
		}
	}
	for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
		p, _ := NewWithChunk(workers, 113)
		maxes := make([]float32, p.NumChunks(n))
		p.ForEach(n, func(s, lo, hi int) {
			m := float32(0)
			for i := lo; i < hi; i++ {
				if vals[i] > m {
					m = vals[i]
				}
			}
			maxes[s] = m
		})
		combined := float32(0)
		for _, m := range maxes {
			if m > combined {
				combined = m
			}
		}
		if combined != serialMax {
			t.Fatalf("workers=%d: combined max %v != serial %v", workers, combined, serialMax)
		}
	}
}

// TestForEachAllocs holds ForEach at its allocation counts: an inline
// sweep (a nil or one-worker pool) allocates nothing, and a four-worker
// dispatch over 17 chunks allocates its shard cursor, its WaitGroup and one
// goroutine closure per worker (6 objects, 280 B), never anything per
// shard. Each bound is the measured count plus half an object and the
// measured bytes plus 512, so one more allocation per call fails it.
func TestForEachAllocs(t *testing.T) {
	const n = 16*DefaultChunk + 5
	var sum atomic.Int64
	fn := func(_, lo, hi int) { sum.Add(int64(hi - lo)) }
	pool1, _ := New(1)
	pool4, _ := New(4)
	for _, tc := range []struct {
		name          string
		pool          *Pool
		allocs, bytes float64
	}{
		{"nil", nil, 0.5, 512},
		{"one_worker", pool1, 0.5, 512},
		{"dispatch", pool4, 6.5, 792},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocgate.Check(t, 100, tc.allocs, tc.bytes, func() { tc.pool.ForEach(n, fn) })
		})
	}
}
