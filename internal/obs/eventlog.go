package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventLog records structured run lifecycle events as JSON Lines: one
// object per line with a monotonic sequence number, the event type, and a
// flat field map (whose keys encoding/json sorts, so a fixed event
// sequence produces byte-identical output).
//
// By default events carry no timestamp — that is what makes a fixed-seed
// run's log reproducible. WithClock opts into "ts_ns" stamps from an
// injected clock (wall time for production, a virtual or fixed-instant
// clock for simulations and tests).
//
// A nil *EventLog is safe: Emit is a no-op, so instrumented code needs no
// conditionals. Emit never fails at the call site; the first marshal or
// write error is latched and reported by Err.
type EventLog struct {
	mu  sync.Mutex
	w   io.Writer
	seq int64
	now func() time.Time
	err error
}

// NewEventLog returns a log writing JSONL to w. The log does not close w.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w}
}

// WithClock makes subsequent events carry a "ts_ns" field read from now,
// and returns the log for chaining. Timestamped logs are only
// reproducible under an injected deterministic clock.
func (l *EventLog) WithClock(now func() time.Time) *EventLog {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
	return l
}

// eventLine fixes the field order of one JSONL record.
type eventLine struct {
	Seq    int64          `json:"seq"`
	TSNs   *int64         `json:"ts_ns,omitempty"`
	Type   string         `json:"type"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Emit appends one event. Safe for concurrent use; events are totally
// ordered by the sequence number assigned under the log's lock.
func (l *EventLog) Emit(typ string, fields map[string]any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	line := eventLine{Seq: l.seq, Type: typ, Fields: fields}
	if l.now != nil {
		ts := l.now().UnixNano()
		line.TSNs = &ts
	}
	b, err := json.Marshal(line)
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		return
	}
	b = append(b, '\n')
	if _, err := l.w.Write(b); err != nil && l.err == nil {
		l.err = err
	}
}

// Seq returns the sequence number of the most recent event (0 if none).
func (l *EventLog) Seq() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Err returns the first marshal or write error the log encountered.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}
