package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the point-in-time state of one or more registries:
// metric values keyed by rendered identity (name or name{labels}),
// plus buffered events. It marshals to JSON directly and renders to
// Prometheus text exposition via WritePrometheus.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Events     []Event                      `json:"events,omitempty"`
}

// HistogramSnapshot is the captured state of one histogram. Counts has
// one entry per bound plus a final +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Merge combines snapshots: counters with the same identity sum,
// gauges sum (components report disjoint identities, so summing is
// also last-writer-safe), histograms with identical bounds add bucket
// by bucket, and events concatenate sorted by time then sequence.
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for k, h := range s.Histograms {
			prev, ok := out.Histograms[k]
			if !ok || len(prev.Bounds) != len(h.Bounds) {
				out.Histograms[k] = cloneHist(h)
				continue
			}
			for i := range prev.Counts {
				if i < len(h.Counts) {
					prev.Counts[i] += h.Counts[i]
				}
			}
			prev.Count += h.Count
			prev.Sum += h.Sum
			out.Histograms[k] = prev
		}
		out.Events = append(out.Events, s.Events...)
	}
	sort.SliceStable(out.Events, func(i, j int) bool {
		if !out.Events[i].Time.Equal(out.Events[j].Time) {
			return out.Events[i].Time.Before(out.Events[j].Time)
		}
		return out.Events[i].Seq < out.Events[j].Seq
	})
	return out
}

func cloneHist(h HistogramSnapshot) HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.Bounds...),
		Counts: append([]int64(nil), h.Counts...),
		Count:  h.Count,
		Sum:    h.Sum,
	}
}

// splitIdentity separates a rendered identity into the metric name and
// the inner label list (without braces), e.g.
// `a_total{server="rs-0"}` -> (`a_total`, `server="rs-0"`).
func splitIdentity(id string) (name, labels string) {
	i := strings.IndexByte(id, '{')
	if i < 0 {
		return id, ""
	}
	return id[:i], strings.TrimSuffix(id[i+1:], "}")
}

// joinLabels renders a label list plus extra pairs back into {...}
// (empty when there are no labels at all).
func joinLabels(labels string, extra ...string) string {
	parts := make([]string, 0, 2)
	if labels != "" {
		parts = append(parts, labels)
	}
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative _bucket/_sum/_count series.
// Events are not rendered (use the JSON form).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		name, labels := splitIdentity(k)
		if _, err := fmt.Fprintf(w, "%s%s %d\n", name, joinLabels(labels), s.Counters[k]); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		name, labels := splitIdentity(k)
		if _, err := fmt.Fprintf(w, "%s%s %s\n", name, joinLabels(labels), promFloat(s.Gauges[k])); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		name, labels := splitIdentity(k)
		cum := int64(0)
		for i, b := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			le := `le="` + promFloat(b) + `"`
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, joinLabels(labels, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, joinLabels(labels, `le="+Inf"`), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, joinLabels(labels), promFloat(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, joinLabels(labels), h.Count); err != nil {
			return err
		}
	}
	return nil
}
