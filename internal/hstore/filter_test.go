package hstore

import (
	"math"
	"sort"
	"testing"
)

func row(key string, cols map[string]string) Row {
	r := Row{Key: key, Columns: map[string][]byte{}}
	for c, v := range cols {
		r.Columns[c] = []byte(v)
	}
	return r
}

func TestPrefixFilter(t *testing.T) {
	f := &PrefixFilter{Prefix: "dynmap/"}
	if !f.Matches(row("dynmap/job1", nil)) {
		t.Error("prefix should match")
	}
	if f.Matches(row("statmap/job1", nil)) || f.Matches(row("dyn", nil)) {
		t.Error("non-prefix rows matched")
	}
}

func TestColumnEqualsFilter(t *testing.T) {
	f := &ColumnEqualsFilter{Column: "!CFG", Value: "B L(B)"}
	if !f.Matches(row("a", map[string]string{"!CFG": "B L(B)"})) {
		t.Error("equal value should match")
	}
	if f.Matches(row("a", map[string]string{"!CFG": "B"})) {
		t.Error("different value matched")
	}
	if f.Matches(row("a", nil)) {
		t.Error("missing column matched")
	}
}

func TestEuclideanFilterDistance(t *testing.T) {
	f := &EuclideanFilter{
		Features:  []string{"x", "y"},
		Target:    []float64{0, 0},
		Min:       []float64{0, 0},
		Max:       []float64{10, 10},
		Threshold: 0.5,
	}
	exact := row("a", map[string]string{"x": "0", "y": "0"})
	if d := f.Distance(exact); d != 0 {
		t.Errorf("distance to identical vector = %v, want 0", d)
	}
	far := row("b", map[string]string{"x": "10", "y": "10"})
	if d := f.Distance(far); math.Abs(d-math.Sqrt(2)) > 1e-9 {
		t.Errorf("distance to opposite corner = %v, want sqrt(2)", d)
	}
	if f.Matches(far) {
		t.Error("far row should not match threshold 0.5")
	}
	near := row("c", map[string]string{"x": "2", "y": "2"})
	if !f.Matches(near) {
		t.Errorf("near row (dist %.3f) should match", f.Distance(near))
	}
}

func TestEuclideanFilterMissingOrBadColumns(t *testing.T) {
	f := &EuclideanFilter{
		Features: []string{"x"}, Target: []float64{1},
		Min: []float64{0}, Max: []float64{2}, Threshold: 10,
	}
	if !math.IsInf(f.Distance(row("a", nil)), 1) {
		t.Error("missing feature should give +Inf distance")
	}
	if !math.IsInf(f.Distance(row("a", map[string]string{"x": "NaNope"})), 1) {
		t.Error("unparsable feature should give +Inf distance")
	}
}

func TestEuclideanNormalizationClamps(t *testing.T) {
	f := &EuclideanFilter{
		Features: []string{"x"}, Target: []float64{5},
		Min: []float64{0}, Max: []float64{1}, Threshold: 1,
	}
	// Target 5 clamps to 1.0; value 100 clamps to 1.0 → distance 0.
	if d := f.Distance(row("a", map[string]string{"x": "100"})); d != 0 {
		t.Errorf("both clamped to 1: distance = %v, want 0", d)
	}
}

func TestEuclideanDegenerateBounds(t *testing.T) {
	f := &EuclideanFilter{
		Features: []string{"x"}, Target: []float64{3},
		Min: []float64{3}, Max: []float64{3}, Threshold: 0.1,
	}
	if d := f.Distance(row("a", map[string]string{"x": "999"})); d != 0 {
		t.Errorf("degenerate bounds should normalize everything to 0: got %v", d)
	}
}

func TestJaccardFilter(t *testing.T) {
	f := &JaccardFilter{
		Want:      map[string]string{"A": "1", "B": "2", "C": "3", "D": "4"},
		Threshold: 0.5,
	}
	half := row("a", map[string]string{"A": "1", "B": "2", "C": "x", "D": "y"})
	if s := f.Score(half); s != 0.5 {
		t.Errorf("score = %v, want 0.5", s)
	}
	if !f.Matches(half) {
		t.Error("score == threshold should match")
	}
	quarter := row("b", map[string]string{"A": "1"})
	if f.Matches(quarter) {
		t.Error("1/4 agreement should not pass 0.5")
	}
	empty := &JaccardFilter{Threshold: 0.5}
	if !empty.Matches(row("c", nil)) {
		t.Error("empty want-set should match everything (score 1)")
	}
}

func TestAndFilter(t *testing.T) {
	f := And(
		&PrefixFilter{Prefix: "a"},
		&ColumnEqualsFilter{Column: "c", Value: "v"},
	)
	if !f.Matches(row("abc", map[string]string{"c": "v"})) {
		t.Error("both-pass row rejected")
	}
	if f.Matches(row("abc", map[string]string{"c": "x"})) {
		t.Error("one-fail row accepted")
	}
	if !And().Matches(row("any", nil)) {
		t.Error("empty And should accept everything")
	}
}

func TestFilterEncodeDecodeRoundTrip(t *testing.T) {
	filters := []Filter{
		&PrefixFilter{Prefix: "dynmap/"},
		&ColumnEqualsFilter{Column: "!CFG", Value: "B L(B)"},
		&EuclideanFilter{
			Features: []string{"x", "y"}, Target: []float64{1, 2},
			Min: []float64{0, 0}, Max: []float64{10, 10}, Threshold: 1.5,
		},
		&JaccardFilter{Want: map[string]string{"A": "1"}, Threshold: 0.5},
		And(&PrefixFilter{Prefix: "p"}, &JaccardFilter{Want: map[string]string{"B": "2"}, Threshold: 0.3}),
	}
	testRows := []Row{
		row("dynmap/j", map[string]string{"x": "1", "y": "2", "!CFG": "B L(B)", "A": "1", "B": "2"}),
		row("p-other", map[string]string{"x": "9", "y": "9", "A": "0", "B": "0"}),
		row("zzz", nil),
	}
	for _, f := range filters {
		wire, err := EncodeFilter(f)
		if err != nil {
			t.Fatalf("encode %T: %v", f, err)
		}
		back, err := DecodeFilter(wire)
		if err != nil {
			t.Fatalf("decode %T: %v", f, err)
		}
		for _, r := range testRows {
			if f.Matches(r) != back.Matches(r) {
				t.Errorf("%T: decoded filter disagrees on row %q", f, r.Key)
			}
		}
	}
}

func TestNilFilterRoundTrip(t *testing.T) {
	wire, err := EncodeFilter(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFilter(wire)
	if err != nil || back != nil {
		t.Errorf("nil filter round-trip = (%v, %v), want (nil, nil)", back, err)
	}
}

func TestDecodeUnknownFilter(t *testing.T) {
	if _, err := DecodeFilter([]byte(`{"kind":"mystery","body":{}}`)); err == nil {
		t.Error("unknown filter kind decoded without error")
	}
	if _, err := DecodeFilter([]byte(`garbage`)); err == nil {
		t.Error("garbage decoded without error")
	}
}

// runOf returns r as the scan merge yields it: its cells in column order.
func runOf(r Row) cellRun {
	var run cellRun
	for c, v := range r.Columns {
		run = append(run, Cell{Row: r.Key, Column: c, Value: v})
	}
	sort.Slice(run, func(i, j int) bool { return run[i].Column < run[j].Column })
	return run
}

// FuzzDecodeFilter feeds arbitrary bytes to DecodeFilter, which reads
// the filters of /d/scan bodies off the network. It never panics or
// hangs: it returns an error, or a filter that evaluates safely, and
// alike, on any row as a Row and as its cells, re-encodes, and decodes
// back to the same wire form. The seed corpus under testdata/fuzz
// (every kind, And and Project nested in each other, nesting past the
// depth bound, mismatched Euclidean vectors, truncated envelopes and
// garbage) runs as regression inputs in plain `go test`.
func FuzzDecodeFilter(f *testing.F) {
	rows := []Row{
		row("dynmap/j", map[string]string{"x": "1", "y": "2", "!CFG": "B L(B)", "A": "1"}),
		row("", map[string]string{"x": "not a number"}),
		{Key: "nil-columns"},
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		flt, err := DecodeFilter(raw)
		if err != nil || flt == nil {
			return
		}
		for _, r := range rows {
			got := flt.Matches(r)
			run := runOf(r)
			if len(run) == 0 { // the scan merge yields no empty run
				continue
			}
			if flt.matchRun(run) != got {
				t.Fatalf("%T passes row %v %v but its cells %v", flt, r, got, !got)
			}
			if p, ok := flt.(*ProjectFilter); ok {
				run.build(p)
			}
		}
		wire, err := EncodeFilter(flt)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", flt, err)
		}
		back, err := DecodeFilter(wire)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", wire, err)
		}
		if again, err := EncodeFilter(back); err != nil || string(again) != string(wire) {
			t.Fatalf("wire form %s came back as %s (err %v)", wire, again, err)
		}
	})
}

// TestDecodeFilterRejectsUnsafeShapes: a Euclidean filter whose vectors
// disagree in length would index past one of them when evaluated, and
// envelopes nested past maxFilterDepth make each level re-read the body
// beneath it; both are refused at decode.
func TestDecodeFilterRejectsUnsafeShapes(t *testing.T) {
	bad := []byte(`{"kind":"euclidean","body":{"features":["x","y"],"target":[1],"min":[0,0],"max":[1,1],"threshold":1}}`)
	if f, err := DecodeFilter(bad); err == nil {
		t.Errorf("mismatched euclidean vectors decoded as %#v", f)
	}
	var f Filter = &PrefixFilter{Prefix: "p"}
	for i := 0; i < maxFilterDepth; i++ {
		f = And(f)
	}
	wire, err := EncodeFilter(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFilter(wire); err != nil {
		t.Errorf("filter nested %d deep: %v", maxFilterDepth, err)
	}
	if wire, err = EncodeFilter(Project(f)); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFilter(wire); err == nil {
		t.Errorf("filter nested %d deep decoded", maxFilterDepth+1)
	}
}
