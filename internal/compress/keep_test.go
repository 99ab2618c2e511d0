package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"lowdiff/internal/cpu"
	"lowdiff/internal/tensor"
)

// keepSpecials are the values planted among the filter's inputs: signed
// zeros, the smallest and largest denormals of both signs, ±Inf, NaNs with
// payloads of both signs (one with every magnitude bit set), and ±MaxFloat32.
// The filter compares bits as integers, so the kernel and the Go loop must
// agree on every one of them.
var keepSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa00002),
	math.Float32frombits(0x7f800003), math.Float32frombits(0xffffffff),
	math.MaxFloat32, -math.MaxFloat32,
}

// checkKeep fails t unless the dispatched filter (the AVX2 kernel plus the
// Go tail where the CPU has it) keeps exactly the keys keepBlock keeps.
func checkKeep(t *testing.T, s *topKScratch, tag string, g tensor.Vector, th uint32) {
	t.Helper()
	got := s.keep(nil, g, th)
	want := keepBlock(nil, g, 0, th)
	if !slices.Equal(got, want) {
		t.Fatalf("%s n=%d t=%#x: kept %d keys, want %d (first difference at %d)",
			tag, len(g), th, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// The dispatched filter equals keepBlock over the whole slice from every
// start offset 0–7, at every length 0–40 and around one and two kernel
// chunks, for thresholds that keep everything, nearly everything, the
// sampled share, only Inf and NaN, only the all-ones NaN, and nothing.
func TestKeepKernelMatchesGo(t *testing.T) {
	if !cpu.AVX2 {
		t.Log("no AVX2: the filter is keepBlock itself")
	}
	const maxOff = 7
	lens := []int{keepChunk - 1, keepChunk, keepChunk + 1, 2*keepChunk - 1, 2 * keepChunk, 2*keepChunk + 1}
	for n := 40; n >= 0; n-- {
		lens = append(lens, n)
	}
	g := workloadGrad(2*keepChunk + 1 + maxOff)
	for i := 0; i < len(g); i += 3 {
		g[i] = keepSpecials[(i/3)%len(keepSpecials)]
	}
	s := new(topKScratch)
	sampled := s.threshold(workloadGrad(sampleMin), sampleMin/100)
	for _, th := range []uint32{0, 1, sampled, 0x7f800000, 0x7fffffff, 1 << 31, math.MaxUint32} {
		for _, n := range lens {
			for off := 0; off <= maxOff; off++ {
				checkKeep(t, s, fmt.Sprintf("off=%d", off), g[off:off+n], th)
			}
		}
	}
}

// FuzzKeep holds the dispatched filter to keepBlock on arbitrary bytes: the
// first four are the threshold, every following four one entry's bits.
func FuzzKeep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3, 4})
	f.Add(binary.LittleEndian.AppendUint32(make([]byte, 4), 0x3f800000))
	f.Add(append([]byte{0, 0, 0x80, 0x7f}, make([]byte, 4*keepChunk+8)...))
	f.Add(append([]byte{0xff, 0xff, 0xff, 0x7f}, bytes.Repeat([]byte{0xff}, 4*67)...))
	s := new(topKScratch)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		g := tensor.New((len(data) - 4) / 4)
		for i := range g {
			g[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4+4*i:]))
		}
		checkKeep(t, s, "fuzz", g, binary.LittleEndian.Uint32(data))
	})
}
