package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func sampleEvents() []Event {
	return []Event{
		{Track: "train", Name: "iteration", Start: 0, Dur: 10 * time.Millisecond, Seq: 1,
			Args: map[string]interface{}{"iter": int64(1)}},
		{Track: "persist", Name: "diff-write", Start: 9 * time.Millisecond, Dur: time.Millisecond, Seq: 2,
			Args: map[string]interface{}{"iter": int64(1), "first": int64(1)}},
		{Track: "train", Name: "iteration", Start: 10 * time.Millisecond, Dur: 10 * time.Millisecond, Seq: 3,
			Args: map[string]interface{}{"iter": int64(2)}},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleEvents()
	SortEvents(want)
	if len(got) != len(want) {
		t.Fatalf("round-trip lost events: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Track != want[i].Track || got[i].Name != want[i].Name ||
			got[i].Start != want[i].Start || got[i].Dur != want[i].Dur || got[i].Seq != want[i].Seq {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
		// Integer args must come back as int64, not float64, so iteration
		// attribution in BuildProfile works on loaded traces.
		if v, ok := got[i].Args["iter"].(int64); !ok || v != want[i].Args["iter"].(int64) {
			t.Fatalf("event %d iter arg = %T %v, want int64", i, got[i].Args["iter"], got[i].Args["iter"])
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Metadata rows are skipped; complete events survive at µs granularity.
	if len(got) != 3 {
		t.Fatalf("got %d events, want 3", len(got))
	}
	if got[0].Track != "train" || got[0].Name != "iteration" || got[0].Dur != 10*time.Millisecond {
		t.Fatalf("event 0 = %+v", got[0])
	}
	if v, ok := got[1].Args["iter"].(int64); !ok || v != 1 {
		t.Fatalf("chrome args not normalized to int64: %T", got[1].Args["iter"])
	}
}

func TestReadEventsSniffsFormats(t *testing.T) {
	var jsonl, chrome bytes.Buffer
	if err := WriteJSONL(&jsonl, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&chrome, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		input string
	}{
		{"jsonl", jsonl.String()},
		{"chrome", chrome.String()},
		{"jsonl-leading-ws", "\n  " + jsonl.String()},
		{"chrome-leading-ws", "\n\t" + chrome.String()},
		// A trace recorded while the retired pipelined schedule still put
		// checkpoint slices on an "overlap" track.
		{"jsonl-overlap-track", `{"track":"train","name":"iteration","start_ns":0,"dur_ns":10000000,"seq":1,"args":{"iter":1}}
{"track":"overlap","name":"compress","start_ns":4000000,"dur_ns":1000000,"seq":2,"args":{"iter":1}}
{"track":"train","name":"iteration","start_ns":10000000,"dur_ns":10000000,"seq":3,"args":{"iter":2}}
`},
	} {
		got, err := ReadEvents(strings.NewReader(tc.input))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(got) != 3 {
			t.Fatalf("%s: got %d events, want 3", tc.name, len(got))
		}
	}
}

func TestReadEventsEmptyInput(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("  \n ")); err == nil {
		t.Fatal("want error on empty input")
	}
}

func TestReadJSONLReportsLineNumber(t *testing.T) {
	input := `{"track":"train","name":"iteration","start_ns":0,"dur_ns":5}
not json
`
	_, err := ReadJSONL(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 position", err)
	}
}

func TestWriteJSONLDeterministicBytes(t *testing.T) {
	// Same events (in any input order) must serialize to identical bytes.
	shuffled := []Event{sampleEvents()[2], sampleEvents()[0], sampleEvents()[1]}
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, shuffled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSONL bytes depend on input order:\n%s\nvs\n%s", a.String(), b.String())
	}
}
