package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "op", "put")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("ops_total", "op", "put"); again != c {
		t.Fatalf("re-registering the same identity returned a new handle")
	}
	if other := r.Counter("ops_total", "op", "get"); other == c {
		t.Fatalf("different labels returned the same handle")
	}

	g := r.Gauge("queue_depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", nil).Observe(1)
	r.GaugeFunc("d", func() float64 { return 1 })
	r.Emit("e", nil)
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	var l *EventLog
	l.Append("x", time.Now(), nil)
	if l.Since(0, 0) != nil || l.Len() != 0 {
		t.Fatalf("nil event log not empty")
	}
}

func TestGaugeFuncDuplicateIdentityPanics(t *testing.T) {
	r := NewRegistry()
	one := func() float64 { return 1 }
	r.GaugeFunc("size", one)
	r.GaugeFunc("size", one, "tenant", "a")
	r.GaugeFunc("size", one, "tenant", "b")
	if got := len(r.Snapshot().Gauges); got != 3 {
		t.Fatalf("distinct label sets registered %d gauges, want 3", got)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `size{tenant="a"}`) {
			t.Fatalf("duplicate GaugeFunc: recovered %q, want a panic naming the identity", msg)
		}
	}()
	r.GaugeFunc("size", one, "tenant", "a")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.9, 5, 50, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []int64{2, 1, 1, 1} // <=1, <=10, <=100, +Inf
	for i, n := range want {
		if s.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], n, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 0.5+0.9+5+50+5000 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(2.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if h.Sum() != 8000*2.5 {
		t.Fatalf("sum = %v, want %v", h.Sum(), 8000*2.5)
	}
}

func TestEventLogRingAndSeq(t *testing.T) {
	l := NewEventLog(4)
	base := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		l.Append("tick", base.Add(time.Duration(i)*time.Second), map[string]string{"i": string(rune('0' + i))})
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4", l.Len())
	}
	events := l.Since(0, 0)
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	for i, e := range events {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if got := l.Since(8, 0); len(got) != 2 || got[0].Seq != 9 {
		t.Fatalf("Since(8) = %+v", got)
	}
	if got := l.Since(0, 1); len(got) != 1 || got[0].Seq != 10 {
		t.Fatalf("Since limit: %+v", got)
	}
	if l.LastSeq() != 10 {
		t.Fatalf("last seq = %d", l.LastSeq())
	}
}

func TestSnapshotAndMerge(t *testing.T) {
	a := NewRegistry()
	a.Now = func() time.Time { return time.Unix(10, 0) }
	a.Counter("x_total").Add(3)
	a.Gauge("g").Set(2)
	a.Histogram("h_ms", []float64{1, 2}).Observe(1.5)
	a.Emit("boot", map[string]string{"who": "a"})

	b := NewRegistry()
	b.Now = func() time.Time { return time.Unix(5, 0) }
	b.Counter("x_total").Add(4)
	b.GaugeFunc("fn", func() float64 { return 9 })
	b.Histogram("h_ms", []float64{1, 2}).Observe(0.5)
	b.Emit("boot", map[string]string{"who": "b"})

	m := Merge(a.Snapshot(), b.Snapshot())
	if m.Counters["x_total"] != 7 {
		t.Fatalf("merged counter = %d, want 7", m.Counters["x_total"])
	}
	if m.Gauges["fn"] != 9 || m.Gauges["g"] != 2 {
		t.Fatalf("merged gauges = %v", m.Gauges)
	}
	h := m.Histograms["h_ms"]
	if h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Fatalf("merged histogram = %+v", h)
	}
	if len(m.Events) != 2 || m.Events[0].Fields["who"] != "b" {
		t.Fatalf("merged events not time-sorted: %+v", m.Events)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "server", "rs-0").Add(2)
	r.Gauge("mem_bytes").Set(1024)
	r.Histogram("lat_ms", []float64{1, 10}, "server", "rs-0").Observe(5)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`req_total{server="rs-0"} 2`,
		`mem_bytes 1024`,
		`lat_ms_bucket{server="rs-0",le="1"} 0`,
		`lat_ms_bucket{server="rs-0",le="10"} 1`,
		`lat_ms_bucket{server="rs-0",le="+Inf"} 1`,
		`lat_ms_sum{server="rs-0"} 5`,
		`lat_ms_count{server="rs-0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Now = func() time.Time { return time.Unix(42, 0) }
	r.Counter("hits_total").Inc()
	r.Emit("started", nil)
	r.Emit("stopped", nil)
	h := Handler(r.Snapshot)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?after=1", nil))
	var events []Event
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("events JSON: %v", err)
	}
	if len(events) != 1 || events[0].Type != "stopped" {
		t.Fatalf("events = %+v", events)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(10, 10, 4)
	want := []float64{10, 100, 1000, 10000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", b)
		}
	}
}
