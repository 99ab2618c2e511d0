package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		op   byte
		body []byte
	}{
		{OpHello, AppendString([]byte{ProtoVersion}, "tenant-a")},
		{OpCommit, nil},
		{OpData, bytes.Repeat([]byte{0xab}, 4096)},
		{OpErr, AppendString([]byte{CodeQuota}, "quota exceeded")},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		if err := WriteFrame(&buf, c.op, c.body); err != nil {
			t.Fatalf("WriteFrame(%s): %v", OpName(c.op), err)
		}
	}
	for _, c := range cases {
		op, body, err := ReadFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("ReadFrame(%s): %v", OpName(c.op), err)
		}
		if op != c.op {
			t.Fatalf("op = %s, want %s", OpName(op), OpName(c.op))
		}
		if !bytes.Equal(body, c.body) {
			t.Fatalf("%s body mismatch: %d bytes vs %d", OpName(c.op), len(body), len(c.body))
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left over after reading all frames", buf.Len())
	}
}

func TestFrameCRCMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpData, []byte("checkpoint chunk")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[7] ^= 0x40 // flip a bit inside the body
	_, _, err := ReadFrame(bytes.NewReader(raw), DefaultMaxFrame)
	if err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted frame: got %v, want CRC mismatch", err)
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpData, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 64); err == nil {
		t.Fatal("frame larger than maxFrame was accepted")
	}
	// A zero-length frame (no opcode byte) is also invalid framing.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), 64); err == nil {
		t.Fatal("zero-length frame was accepted")
	}
}

func TestUsageCodecRoundTrip(t *testing.T) {
	want := Usage{UsedBytes: 1 << 40, QuotaBytes: -1, InflightBytes: 12345, Objects: 9}
	got, err := DecodeUsage(EncodeUsage(want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("usage round trip: got %+v, want %+v", got, want)
	}
	if _, err := DecodeUsage(EncodeUsage(want)[:17]); err == nil {
		t.Fatal("truncated usage body was accepted")
	}
}

func TestNamesCodecRoundTrip(t *testing.T) {
	for _, want := range [][]string{nil, {"full-000000000042.ckpt"}, {"a", "b", "c"}} {
		got, err := DecodeNames(EncodeNames(want))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("names round trip: got %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("names round trip: got %v, want %v", got, want)
			}
		}
	}
	if _, err := DecodeNames(EncodeNames([]string{"abc"})[:6]); err == nil {
		t.Fatal("truncated names body was accepted")
	}
}

// TestWireReaderStrict covers the strict-decode contract: short bodies and
// trailing garbage both poison the read, and Done reports it.
func TestWireReaderStrict(t *testing.T) {
	body := AppendString(AppendU64(nil, 7), "diff-000000000001.ckpt")
	r := NewWireReader(body)
	if v := r.U64(); v != 7 {
		t.Fatalf("U64 = %d, want 7", v)
	}
	if s := r.Str(); s != "diff-000000000001.ckpt" {
		t.Fatalf("Str = %q", s)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("clean decode reported error: %v", err)
	}

	r = NewWireReader(body)
	r.U64()
	r.Str()
	r.U64() // reads past the end
	if err := r.Done(); err == nil {
		t.Fatal("short body was not reported")
	}

	r = NewWireReader(append(body, 0xff))
	r.U64()
	r.Str()
	if err := r.Done(); err == nil {
		t.Fatal("trailing bytes were not reported")
	}
}

// TestWriteFrameWireBytes pins the wire format: whatever path WriteFrame
// takes — one buffer for a small frame, a vectored write for a large one, a
// net.Conn or a plain io.Writer underneath — the bytes are the length
// prefix, opcode, body and CRC-32 assembled by hand here.
func TestWriteFrameWireBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	big := make([]byte, 300<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	bodies := [][]byte{nil, []byte("full-000000000012.ckpt"), big[:smallFrame], big[:smallFrame+1], big}
	for _, body := range bodies {
		want := binary.BigEndian.AppendUint32(nil, uint32(1+len(body)))
		want = append(want, OpData)
		want = append(want, body...)
		want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(want[4:]))

		var plain bytes.Buffer
		if err := WriteFrame(&plain, OpData, body); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), want) {
			t.Fatalf("%d-byte body on an io.Writer: frame differs from the hand-assembled one", len(body))
		}

		errc := make(chan error, 1) // the one send below never blocks
		go func() { errc <- WriteFrame(client, OpData, body) }()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(server, got); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte body on a net.Conn: frame differs from the hand-assembled one", len(body))
		}
	}
}

// TestChunkListBoundsPinnedMemory feeds a list frames of every awkward
// size and checks both what it stores and what it pins: the bytes it
// commits, in order, and no more than two chunks of buffer per chunk of data.
func TestChunkListBoundsPinnedMemory(t *testing.T) {
	var wire, want bytes.Buffer
	sizes := []int{1, 1, ChunkSize / 2, ChunkSize/2 + 1, 3, ChunkSize, 0, ChunkSize - 1, 2, 2 * ChunkSize, 5}
	for i, n := range sizes {
		body := bytes.Repeat([]byte{byte(i + 1)}, n)
		want.Write(body)
		if err := WriteFrame(&wire, OpData, body); err != nil {
			t.Fatal(err)
		}
	}
	var l ChunkList
	for range sizes {
		f, err := ReadPooledFrame(&wire)
		if err != nil {
			t.Fatal(err)
		}
		l.Add(&f)
		f.Release()
	}
	if l.Len() != int64(want.Len()) {
		t.Fatalf("list holds %d bytes, want %d", l.Len(), want.Len())
	}
	pinned := 0
	for _, c := range l.chunks {
		pinned += cap(c.Body)
	}
	if limit := 2*want.Len() + ChunkSize; pinned > limit {
		t.Fatalf("list pins %d bytes of buffer for %d stored, limit %d", pinned, want.Len(), limit)
	}
	mem := NewMem()
	if err := l.Commit(mem, "obj"); err != nil {
		t.Fatal(err)
	}
	l.Release()
	got, err := ReadObject(mem, "obj")
	if err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("read back %d bytes (err %v), want %d identical ones", len(got), err, want.Len())
	}
}
