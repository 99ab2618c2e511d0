package storage

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRemoteBackoffSchedulePinned pins the client's jittered backoff for
// attempts 1–8 under a fixed seed: the exponential ladder, the cap, and
// every jitter draw of the seeded stream, in order.
func TestRemoteBackoffSchedulePinned(t *testing.T) {
	dial := func(string) (net.Conn, error) {
		client, server := net.Pipe()
		go func() { // answer the HELLO handshake, then hang up
			if _, _, err := ReadFrame(server, DefaultMaxFrame); err == nil {
				_ = WriteFrame(server, OpOK, nil) // the client reports a failed reply
			}
			_ = server.Close() // test peer; nothing reads past the handshake
		}()
		return client, nil
	}
	r, err := DialRemote("pipe", "t", RemoteOptions{Jitter: 0.5, Seed: 7, Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }() // the peer already hung up
	var got []time.Duration
	for attempt := 1; attempt <= 8; attempt++ {
		got = append(got, r.backoffFor(attempt, 0))
	}
	want := []time.Duration{805085, 1983211, 2198478, 5668278, 12380464, 28009095, 49025503, 107003088}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("backoff schedule\n got %#v\nwant %#v", got, want)
	}
}

// Backoff doubles from the base up to the cap, lifts a shorter sleep to the
// server's hint, caps the hint too, and draws a jitter number only when it
// jitters a sleep.
func TestBackoffFloorAndCap(t *testing.T) {
	ms := time.Millisecond
	draws := 0
	half := func() float64 { draws++; return 0.5 }
	for _, c := range []struct {
		attempt            int
		base, limit, floor time.Duration
		jitter             float64
		want               time.Duration
		draws              int
	}{
		{1, ms, 0, 0, 0, ms, 0},
		{4, ms, 0, 0, 0, 8 * ms, 0},               // no cap
		{9, ms, 100 * ms, 0, 0, 100 * ms, 0},      // capped
		{2, ms, 100 * ms, 30 * ms, 0, 30 * ms, 0}, // the hint is the floor
		{2, ms, 100 * ms, time.Second, 0, 100 * ms, 0},
		{3, ms, 100 * ms, 0, 0.5, 3 * ms, 1}, // 4 ms shrunk by 0.5·0.5
		{3, 0, 100 * ms, 0, 0.5, 0, 0},       // nothing to sleep, nothing drawn
		{3, 0, 100 * ms, 8 * ms, 0.5, 6 * ms, 1},
	} {
		draws = 0
		got := Backoff(c.attempt, c.base, c.limit, c.floor, c.jitter, half)
		if got != c.want || draws != c.draws {
			t.Errorf("Backoff(%d, %v, %v, %v, %v) = %v after %d draws, want %v after %d",
				c.attempt, c.base, c.limit, c.floor, c.jitter, got, draws, c.want, c.draws)
		}
	}
}

// within fails the test if fn does not return in time: a call that blocks
// on a lock a failed path forgot to release never returns.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestRemoteCloseWithCallInFlight closes the client while a SIZE call holds
// its one connection. The call still completes; its connection is then
// closed rather than pooled; and every call after Close fails at once, as
// often as it is made, with Close itself idempotent.
func TestRemoteCloseWithCallInFlight(t *testing.T) {
	asked, release, hungUp := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	dial := func(string) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer func() { _ = server.Close() }() // test peer; the client sees EOF
			if _, _, err := ReadFrame(server, DefaultMaxFrame); err != nil {
				return
			}
			if err := WriteFrame(server, OpOK, nil); err != nil {
				return
			}
			if op, _, err := ReadFrame(server, DefaultMaxFrame); err != nil || op != OpSize {
				return
			}
			close(asked)
			<-release
			if err := WriteFrame(server, OpInt, AppendU64(nil, 42)); err != nil {
				return
			}
			_, _, err := ReadFrame(server, DefaultMaxFrame)
			hungUp <- err
		}()
		return client, nil
	}
	r, err := DialRemote("pipe", "t", RemoteOptions{Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	sized := make(chan error, 1)
	go func() {
		n, err := r.Size("a")
		if err == nil && n != 42 {
			err = fmt.Errorf("size %d, want 42", n)
		}
		sized <- err
	}()
	<-asked
	within(t, "Close with a call in flight", func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	})
	close(release)
	within(t, "the in-flight Size", func() {
		if err := <-sized; err != nil {
			t.Errorf("in-flight Size: %v", err)
		}
		if err := <-hungUp; err == nil {
			t.Error("the in-flight call's connection went back to a closed pool")
		}
	})
	for i := range 2 {
		within(t, fmt.Sprintf("Size %d after Close", i+1), func() {
			if _, err := r.Size("a"); err == nil || !strings.Contains(err.Error(), "closed") {
				t.Errorf("Size after Close: %v, want a closed-store error", err)
			}
		})
	}
	within(t, "a second Close", func() {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	})
}
