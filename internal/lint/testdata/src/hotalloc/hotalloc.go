// Package hotalloc is a lint fixture for the compiler-backed hot-path
// allocation rule: the whole package is declared hot in the test config, so
// every heap site the compiler's escape analysis reports is a finding unless
// it is a fresh result or sits in a cold callee's arguments.
package hotalloc

import "fmt"

// sink keeps escaping values alive for the fixture.
var sink []byte

// Result is the fresh-result shape: a composite built and returned.
type Result struct {
	Idx  []int32
	Vals []float32
}

// EscapingMake stores a non-constant make beyond the frame (violation).
func EscapingMake(n int) {
	buf := make([]byte, n)
	sink = buf
}

// ConstStack keeps a constant-size buffer local (allowed: stack).
func ConstStack() int {
	var total int
	buf := make([]byte, 64)
	for i := range buf {
		total += int(buf[i])
	}
	return total
}

// FreshResult builds and returns a new value; the makes feeding its
// fields inherit the return exemption (allowed: fresh-result ownership).
func FreshResult(n int) *Result {
	out := &Result{}
	out.Idx = make([]int32, 0, n)
	out.Vals = make([]float32, 0, n)
	return out
}

// FreshLiteral returns a composite literal built from locals; the makes
// behind its elements are the result too (allowed: fresh-result ownership).
func FreshLiteral(n int) *Result {
	idx := make([]int32, n)
	vals := make([]float32, n)
	return &Result{Idx: idx, Vals: vals}
}

// GrowingAppend appends to a dst with no capacity. Append growth is
// invisible to the compiler's -m output, so nothing is reported; the
// allocs/op gate of the benchmarks covers it (allowed: out of reach).
func GrowingAppend(src []int32) int {
	var acc []int32
	for _, v := range src {
		if v > 0 {
			acc = append(acc, v)
		}
	}
	return len(acc)
}

// PreSizedAppend appends to a three-arg make and returns the result: the
// make is the fresh result (allowed).
func PreSizedAppend(src []int32) []int32 {
	acc := make([]int32, 0, len(src))
	for _, v := range src {
		if v > 0 {
			acc = append(acc, v)
		}
	}
	return acc
}

// CloneIdiom copies via append to a nil literal and returns the clone
// (allowed: fresh result).
func CloneIdiom(src []int32) []int32 {
	return append([]int32(nil), src...)
}

// ClosureInLoop builds a function literal per iteration that never leaves
// the frame: the compiler keeps it on the stack (allowed).
func ClosureInLoop(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		add := func(v int) { total += v }
		add(i)
	}
	return total
}

// Boxing passes an integer to an interface parameter of a callee that is
// inlined and does not keep it: no box is allocated (allowed).
func Boxing(iter int64) {
	record("iter", iter)
}

// MovedToHeap takes the address of a local and publishes it: the variable
// itself moves to the heap (violation).
func MovedToHeap(n int) {
	var hdr [8]byte
	hdr[0] = byte(n)
	publish(&hdr)
}

// Conversion copies a []byte into a string that outlives the frame
// (violation).
func Conversion(b []byte) {
	name = string(b)
}

// SpawnedClosure hands a function literal to a goroutine, which always
// moves it to the heap (violation).
func SpawnedClosure(n int, done chan<- int) {
	go func() { done <- n }()
}

// StoredClosure keeps a function literal beyond the frame (violation).
func StoredClosure(n int) {
	hook = func() int { return n }
}

// FreshVar returns the address of a local: the variable moves to the heap,
// and the compiler's flow for it ends in the result (allowed: fresh-result
// ownership).
func FreshVar(n int) *[8]byte {
	var hdr [8]byte
	hdr[0] = byte(n)
	return &hdr
}

// ColdCallee builds an error through a configured-cold constructor; the
// boxed argument escapes but is exempt (allowed: fmt.Errorf is cold in the
// test config).
func ColdCallee(n int) {
	if n < 0 {
		failure = fmt.Errorf("hotalloc: negative %d", n)
	}
}

// ColdPanic panics with a constant message: the compiler reports the
// string escaping into the interface, but emits it as read-only data
// (allowed).
func ColdPanic(n int) {
	if n < 0 {
		panic("hotalloc: negative")
	}
}

// Suppressed carries a justified directive (allowed: suppressed).
func Suppressed(n int) {
	buf := make([]byte, n) //lint:allow hotalloc fixture: escape is the point of this fixture
	sink = buf
}

var (
	name    string
	hook    func() int
	board   []*[8]byte
	failure error
)

func publish(h *[8]byte) { board = append(board, h) }

func record(key string, v any) { _, _ = key, v }
