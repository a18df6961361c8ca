package hstore

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Filter is a row predicate, evaluated at the region server when pushed
// down with a scan (§5.3). The server evaluates it on each row's cells
// and builds a Row only for the rows that pass. Filters must be
// serializable so they can cross the client/server boundary.
type Filter interface {
	// Matches reports whether the row passes the filter.
	Matches(r Row) bool
	// matchRun is Matches over a row as Server.Scan holds it before
	// building one: its live cells in column order.
	matchRun(r cellRun) bool
	// kind returns the registry tag used for serialization.
	kind() string
}

// columnReader is what a filter reads: a Row, or the cellRun
// Server.Scan holds.
type columnReader interface {
	value(col string) ([]byte, bool)
}

// envelope is the wire form of a filter.
type envelope struct {
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// EncodeFilter serializes any registered filter.
func EncodeFilter(f Filter) ([]byte, error) {
	if f == nil {
		return json.Marshal(envelope{Kind: "none"})
	}
	body, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Kind: f.kind(), Body: body})
}

// maxFilterDepth bounds how deeply DecodeFilter follows nested And and
// Project envelopes. Filters arrive in /d/scan bodies off the network,
// and each level re-reads the body beneath it.
const maxFilterDepth = 16

// DecodeFilter reconstructs a filter from its wire form.
func DecodeFilter(raw []byte) (Filter, error) {
	return decodeFilter(raw, 0)
}

func decodeFilter(raw []byte, depth int) (Filter, error) {
	if depth > maxFilterDepth {
		return nil, fmt.Errorf("hstore: filter nested deeper than %d", maxFilterDepth)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("hstore: decode filter envelope: %w", err)
	}
	switch env.Kind {
	case "none", "":
		return nil, nil
	case "prefix":
		var f PrefixFilter
		return &f, json.Unmarshal(env.Body, &f)
	case "column-equals":
		var f ColumnEqualsFilter
		return &f, json.Unmarshal(env.Body, &f)
	case "euclidean":
		var f EuclideanFilter
		if err := json.Unmarshal(env.Body, &f); err != nil {
			return nil, err
		}
		if n := len(f.Features); len(f.Target) != n || len(f.Min) != n || len(f.Max) != n {
			return nil, fmt.Errorf("hstore: euclidean filter has %d features but %d targets, %d mins and %d maxes",
				n, len(f.Target), len(f.Min), len(f.Max))
		}
		return &f, nil
	case "jaccard":
		var f JaccardFilter
		return &f, json.Unmarshal(env.Body, &f)
	case "and":
		var w andWire
		if err := json.Unmarshal(env.Body, &w); err != nil {
			return nil, err
		}
		var fs []Filter
		for _, raw := range w.Filters {
			sub, err := decodeFilter(raw, depth+1)
			if err != nil {
				return nil, err
			}
			fs = append(fs, sub)
		}
		return And(fs...), nil
	case "project":
		var w projectWire
		if err := json.Unmarshal(env.Body, &w); err != nil {
			return nil, err
		}
		inner, err := decodeFilter(w.Filter, depth+1)
		if err != nil {
			return nil, err
		}
		return Project(inner, w.Columns...), nil
	default:
		return nil, fmt.Errorf("hstore: unknown filter kind %q", env.Kind)
	}
}

// PrefixFilter keeps rows whose key starts with Prefix.
type PrefixFilter struct {
	Prefix string `json:"prefix"`
}

func (f *PrefixFilter) kind() string { return "prefix" }

// Matches implements Filter.
func (f *PrefixFilter) Matches(r Row) bool { return strings.HasPrefix(r.Key, f.Prefix) }

func (f *PrefixFilter) matchRun(r cellRun) bool { return strings.HasPrefix(r[0].Row, f.Prefix) }

// ColumnEqualsFilter keeps rows where the column exists and equals the
// value exactly. PStorM's conservative CFG matching (§4.2) is this
// filter over the canonical CFG string column: the synchronized-BFS
// comparison of two normalized CFGs is string equality of their
// canonical forms, scored 0 or 1.
type ColumnEqualsFilter struct {
	Column string `json:"column"`
	Value  string `json:"value"`
}

func (f *ColumnEqualsFilter) kind() string { return "column-equals" }

// Matches implements Filter.
func (f *ColumnEqualsFilter) Matches(r Row) bool { return columnEquals(f, r) }

func (f *ColumnEqualsFilter) matchRun(r cellRun) bool { return columnEquals(f, r) }

func columnEquals[R columnReader](f *ColumnEqualsFilter, r R) bool {
	v, ok := r.value(f.Column)
	return ok && string(v) == f.Value
}

// EuclideanFilter keeps rows whose numeric feature columns lie within
// Threshold of the target vector, after min-max normalization of every
// feature to [0,1] (§4.2). Features missing from a row disqualify it.
type EuclideanFilter struct {
	// Features lists the column names, aligned with Target.
	Features []string `json:"features"`
	// Target is the submitted job's (un-normalized) feature values.
	Target []float64 `json:"target"`
	// Min and Max are the per-feature normalization bounds maintained by
	// the profile store.
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
	// Threshold is the maximum allowed normalized distance.
	Threshold float64 `json:"threshold"`
}

func (f *EuclideanFilter) kind() string { return "euclidean" }

// Distance computes the normalized Euclidean distance between the
// row's features and the target, or +Inf if any feature is missing.
func (f *EuclideanFilter) Distance(r Row) float64 { return distance(f, r) }

// Matches implements Filter.
func (f *EuclideanFilter) Matches(r Row) bool { return distance(f, r) <= f.Threshold }

func (f *EuclideanFilter) matchRun(r cellRun) bool { return distance(f, r) <= f.Threshold }

func distance[R columnReader](f *EuclideanFilter, r R) float64 {
	var sum float64
	for i, name := range f.Features {
		raw, ok := r.value(name)
		if !ok {
			return math.Inf(1)
		}
		v, err := strconv.ParseFloat(string(raw), 64)
		if err != nil {
			return math.Inf(1)
		}
		d := normalize(v, f.Min[i], f.Max[i]) - normalize(f.Target[i], f.Min[i], f.Max[i])
		sum += d * d
	}
	return math.Sqrt(sum)
}

func normalize(v, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	n := (v - lo) / (hi - lo)
	if n < 0 {
		return 0
	}
	if n > 1 {
		return 1
	}
	return n
}

// JaccardFilter keeps rows whose categorical feature columns agree with
// the target on at least Threshold of the positions (§4.2: PStorM only
// tests corresponding feature pairs for equality, which reduces the
// Jaccard computation to O(|S|)).
type JaccardFilter struct {
	// Want maps column name → expected categorical value.
	Want map[string]string `json:"want"`
	// Threshold is the minimum fraction of agreeing features.
	Threshold float64 `json:"threshold"`
}

func (f *JaccardFilter) kind() string { return "jaccard" }

// Score returns the fraction of features on which the row agrees.
func (f *JaccardFilter) Score(r Row) float64 { return score(f, r) }

// Matches implements Filter.
func (f *JaccardFilter) Matches(r Row) bool { return score(f, r) >= f.Threshold }

func (f *JaccardFilter) matchRun(r cellRun) bool { return score(f, r) >= f.Threshold }

func score[R columnReader](f *JaccardFilter, r R) float64 {
	if len(f.Want) == 0 {
		return 1
	}
	agree := 0
	for col, want := range f.Want {
		if v, ok := r.value(col); ok && string(v) == want {
			agree++
		}
	}
	return float64(agree) / float64(len(f.Want))
}

// AndFilter conjoins filters.
type AndFilter struct {
	filters []Filter
}

type andWire struct {
	Filters []json.RawMessage `json:"filters"`
}

// And returns the conjunction of the given filters.
func And(fs ...Filter) *AndFilter { return &AndFilter{filters: fs} }

func (f *AndFilter) kind() string { return "and" }

// Matches implements Filter.
func (f *AndFilter) Matches(r Row) bool {
	for _, sub := range f.filters {
		if sub != nil && !sub.Matches(r) {
			return false
		}
	}
	return true
}

func (f *AndFilter) matchRun(r cellRun) bool {
	for _, sub := range f.filters {
		if sub != nil && !sub.matchRun(r) {
			return false
		}
	}
	return true
}

// MarshalJSON implements json.Marshaler: nested filters are encoded as
// envelopes.
func (f *AndFilter) MarshalJSON() ([]byte, error) {
	var w andWire
	for _, sub := range f.filters {
		raw, err := EncodeFilter(sub)
		if err != nil {
			return nil, err
		}
		w.Filters = append(w.Filters, raw)
	}
	return json.Marshal(w)
}

// ProjectFilter matches like Filter (nil matches every row) and asks the
// scan to return only Columns: Server.Scan builds each row it returns
// with only those of them the row holds, and a row holding none comes
// back with nil Columns. Only a top-level Project pushed down to Server.Scan
// trims; nested in And, or applied client-side, it filters like Filter
// alone.
type ProjectFilter struct {
	Filter  Filter
	Columns []string
}

type projectWire struct {
	Filter  json.RawMessage `json:"filter"`
	Columns []string        `json:"columns"`
}

// Project returns f with its returned rows trimmed to cols.
func Project(f Filter, cols ...string) *ProjectFilter {
	return &ProjectFilter{Filter: f, Columns: cols}
}

func (f *ProjectFilter) kind() string { return "project" }

// Matches implements Filter.
func (f *ProjectFilter) Matches(r Row) bool { return f.Filter == nil || f.Filter.Matches(r) }

func (f *ProjectFilter) matchRun(r cellRun) bool { return f.Filter == nil || f.Filter.matchRun(r) }

// MarshalJSON implements json.Marshaler: the inner filter is encoded as
// an envelope, as And's are.
func (f *ProjectFilter) MarshalJSON() ([]byte, error) {
	inner, err := EncodeFilter(f.Filter)
	if err != nil {
		return nil, err
	}
	return json.Marshal(projectWire{Filter: inner, Columns: f.Columns})
}
