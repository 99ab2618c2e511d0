package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"lowdiff/internal/tensor"
)

// FuzzRingAllReduceMatchesReference holds the shared-memory all-reduce to
// the message-passing ring bit for bit. The input picks the group size
// (1–8), the length (0–300, so shorter than the group too) and sum or
// mean; data supplies float32 bit patterns four bytes at a time, which
// rank r's vector reads cyclically from word 7r on, so ±0, subnormals,
// ±Inf and NaN payloads meet in one sum.
func FuzzRingAllReduceMatchesReference(f *testing.F) {
	words := func(vals ...uint32) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f32 := func(vals ...float32) []byte {
		b := make([]uint32, len(vals))
		for i, v := range vals {
			b[i] = math.Float32bits(v)
		}
		return words(b...)
	}
	special := words(0, 1<<31, 1, 0x807fffff, 0x7f800000, 0xff800000,
		0x7fc00001, 0xffa00002, 0x7f7fffff, 0x3f800000)
	f.Add(uint8(1), uint16(5), false, special)
	f.Add(uint8(2), uint16(1), true, special)
	f.Add(uint8(3), uint16(2), false, special)
	f.Add(uint8(4), uint16(300), true, special)
	f.Add(uint8(5), uint16(0), false, special)
	f.Add(uint8(7), uint16(257), false, f32(1, 1e-8, -1, 3e38, 3e38, -0.5))
	f.Add(uint8(8), uint16(9), true, f32(0.1, -0.2, 0.3, 1e-45))
	f.Add(uint8(6), uint16(123), true, []byte{})
	f.Fuzz(func(t *testing.T, size uint8, length uint16, mean bool, data []byte) {
		n, m := 1+int(size)%8, int(length)%301
		w := make([]uint32, len(data)/4)
		for i := range w {
			w[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		vecs := make([]tensor.Vector, n)
		for r := range vecs {
			vecs[r] = tensor.New(m)
			for i := range vecs[r] {
				if len(w) > 0 {
					vecs[r][i] = math.Float32frombits(w[(7*r+i)%len(w)])
				}
			}
		}
		g, err := NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRing(t, fmt.Sprintf("n=%d m=%d", n, m), g, mean, vecs)
	})
}
