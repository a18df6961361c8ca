package obs

import (
	"sync"
	"time"
)

// Event is one structured trace record: a monotonically increasing
// per-log sequence number, a timestamp, a type tag, and free-form
// string fields.
type Event struct {
	Seq    uint64            `json:"seq"`
	Time   time.Time         `json:"time"`
	Type   string            `json:"type"`
	Fields map[string]string `json:"fields,omitempty"`
}

// DefaultEventCapacity bounds an event log when no capacity is given.
const DefaultEventCapacity = 1024

// EventLog is a bounded in-memory ring of events. Appends past the
// capacity overwrite the oldest entries; sequence numbers keep growing,
// so a reader can detect the gap.
type EventLog struct {
	mu   sync.Mutex
	cap  int
	buf  []Event // ring, ordered by seq modulo rotation
	next uint64  // seq of the next appended event (first seq is 1)
}

// NewEventLog returns a log holding at most capacity events
// (capacity <= 0: DefaultEventCapacity).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{cap: capacity}
}

// Append records one event and returns its sequence number.
func (l *EventLog) Append(typ string, at time.Time, fields map[string]string) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	e := Event{Seq: l.next, Time: at, Type: typ, Fields: fields}
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, e)
	} else {
		l.buf[int((e.Seq-1)%uint64(l.cap))] = e
	}
	return e.Seq
}

// Since returns buffered events with Seq > after, oldest first, at most
// limit (limit <= 0: all buffered).
func (l *EventLog) Since(after uint64, limit int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.buf)
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	// Oldest buffered seq is next-n+1; walk the ring in seq order.
	first := l.next - uint64(n) + 1
	for s := first; s <= l.next; s++ {
		e := l.buf[int((s-1)%uint64(l.cap))]
		if e.Seq > after {
			out = append(out, e)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Len returns the number of buffered events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}
