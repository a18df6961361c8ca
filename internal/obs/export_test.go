package obs

import "time"

// LastSeq returns the sequence number of the newest event (0 if none).
func (l *EventLog) LastSeq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// ObserveSince records the elapsed time since start, in milliseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}
