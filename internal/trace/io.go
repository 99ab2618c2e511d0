package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// io.go persists and reloads span timelines. The native format is span
// JSONL — one event per line, nanosecond offsets, lossless — which
// lowdifftrain writes via --trace-out and cmd/lowdifftrace
// reads back. Chrome trace-event JSON (the --trace/perfetto format) can
// also be read, at its native microsecond granularity.

// jsonlEvent is the on-disk shape of one span.
type jsonlEvent struct {
	Track   string                 `json:"track"`
	Name    string                 `json:"name"`
	StartNS int64                  `json:"start_ns"`
	DurNS   int64                  `json:"dur_ns"`
	Seq     uint64                 `json:"seq,omitempty"`
	Args    map[string]interface{} `json:"args,omitempty"`
}

// WriteJSONL writes events as span JSONL in canonical order.
func WriteJSONL(w io.Writer, events []Event) error {
	evs := append([]Event(nil), events...)
	SortEvents(evs)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range evs {
		if err := enc.Encode(jsonlEvent{
			Track:   e.Track,
			Name:    e.Name,
			StartNS: e.Start.Nanoseconds(),
			DurNS:   e.Dur.Nanoseconds(),
			Seq:     e.Seq,
			Args:    e.Args,
		}); err != nil {
			return fmt.Errorf("trace: encoding span: %w", err)
		}
	}
	return bw.Flush()
}

// WriteJSONL writes the recorder's events as span JSONL.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, r.Events())
}

// ReadJSONL decodes a span JSONL stream back into events. Integer-valued
// args round-trip as int64 (JSON numbers decode as float64, so integral
// values are normalized) to keep iteration attribution working.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
		}
		out = append(out, Event{
			Track: je.Track,
			Name:  je.Name,
			Start: time.Duration(je.StartNS),
			Dur:   time.Duration(je.DurNS),
			Seq:   je.Seq,
			Args:  normalizeArgs(je.Args),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading jsonl: %w", err)
	}
	return out, nil
}

// ReadChromeTrace decodes a Chrome trace-event JSON array ("X" complete
// events; metadata rows are skipped). Offsets and durations come back at
// microsecond granularity — Chrome's native unit.
func ReadChromeTrace(r io.Reader) ([]Event, error) {
	var rows []chromeEvent
	if err := json.NewDecoder(r).Decode(&rows); err != nil {
		return nil, fmt.Errorf("trace: decoding chrome trace: %w", err)
	}
	var out []Event
	var seq uint64
	for _, row := range rows {
		if row.Ph != "X" {
			continue
		}
		seq++
		out = append(out, Event{
			Track: row.Cat,
			Name:  row.Name,
			Start: time.Duration(row.TS) * time.Microsecond,
			Dur:   time.Duration(row.Dur) * time.Microsecond,
			Seq:   seq,
			Args:  normalizeArgs(row.Args),
		})
	}
	return out, nil
}

// ReadEvents sniffs the format — '[' starts a Chrome trace array,
// anything else is span JSONL — and decodes accordingly.
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	for {
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: empty trace input")
		}
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		}
		if err := br.UnreadByte(); err != nil {
			return nil, err
		}
		if b == '[' {
			return ReadChromeTrace(br)
		}
		return ReadJSONL(br)
	}
}

// normalizeArgs converts integral float64 arg values (the JSON decoding
// of recorded int64s) back to int64 so loaded traces attribute spans to
// iterations exactly like live ones.
func normalizeArgs(args map[string]interface{}) map[string]interface{} {
	if args == nil {
		return nil
	}
	out := make(map[string]interface{}, len(args))
	//lint:allow determinism building a map from a map is order-independent
	for k, v := range args {
		//lint:allow floateq exact integrality check, not a tolerance comparison
		if f, ok := v.(float64); ok && f == float64(int64(f)) {
			out[k] = int64(f)
			continue
		}
		out[k] = v
	}
	return out
}
