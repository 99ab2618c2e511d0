package storage

import (
	"net"
	"reflect"
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
