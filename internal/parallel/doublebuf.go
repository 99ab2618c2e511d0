package parallel

// DoubleBuf is the second in-flight buffer set for the pipelined step
// schedule (DESIGN.md §11): two fixed-size float32 staging buffers that
// let a checkpoint snapshot of iteration i be copied and persisted while
// iteration i+1 mutates the live parameters.
//
// Ownership follows the pool's rules from DESIGN.md §8: a buffer belongs
// to exactly one owner from Acquire until Release, and CopyFrom shards
// the copy on the same fixed chunk grid as every other data-plane kernel
// so the staged bytes are identical at any worker count (copy is exact;
// the grid only bounds per-worker slices, it never splits an element).
//
// The free list is a buffered channel sized to the buffer count, so
// Acquire doubles as back-pressure: at most two snapshots are in flight
// and a third must wait for a persist to release its buffer.
type DoubleBuf struct {
	n    int
	free chan []float32
}

// NewDoubleBuf allocates two n-element staging buffers.
func NewDoubleBuf(n int) *DoubleBuf {
	d := &DoubleBuf{n: n, free: make(chan []float32, 2)}
	//lint:allow hotalloc construction-time: both buffers are allocated once and recycled for the engine's lifetime
	d.free <- make([]float32, n)
	//lint:allow hotalloc construction-time: both buffers are allocated once and recycled for the engine's lifetime
	d.free <- make([]float32, n)
	return d
}

// Len returns the element count each buffer holds.
func (d *DoubleBuf) Len() int { return d.n }

// Acquire blocks until a staging buffer is free and transfers ownership
// of it to the caller.
func (d *DoubleBuf) Acquire() []float32 { return <-d.free }

// Release returns a buffer obtained from Acquire to the free list. The
// caller must not touch the buffer afterwards.
func (d *DoubleBuf) Release(buf []float32) {
	if len(buf) != d.n {
		panic("parallel: Release of a buffer this DoubleBuf does not own")
	}
	select {
	case d.free <- buf:
	default:
		panic("parallel: DoubleBuf.Release without matching Acquire")
	}
}

// CopyFrom acquires a buffer and fills it from src on the pool's fixed
// chunk grid (serial when p is nil, exactly like Pool.ForEach). src must
// have the DoubleBuf's element count.
func (d *DoubleBuf) CopyFrom(p *Pool, src []float32) []float32 {
	if len(src) != d.n {
		panic("parallel: CopyFrom source length mismatch")
	}
	buf := d.Acquire()
	//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
	p.ForEach(len(src), func(_, lo, hi int) {
		copy(buf[lo:hi], src[lo:hi])
	})
	return buf
}
