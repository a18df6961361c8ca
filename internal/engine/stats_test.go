package engine

import (
	"fmt"
	"math"
	"testing"

	"pstorm/internal/data"
	"pstorm/internal/mrjob"
)

// identitySpec is a 1:1 job: one output record per input record.
func identitySpec() *mrjob.Spec {
	return &mrjob.Spec{
		Name: "identity",
		Source: `
func map(key, line) { emit(key, line); }
func reduce(key, values) {
	for (let i = 0; i < len(values); i = i + 1) { emit(key, values[i]); }
}`,
		InFormatter: "TextInputFormat", OutFormatter: "TextOutputFormat",
		Mapper: "IdM", Reducer: "IdR",
		MapInKey: "LongWritable", MapInVal: "Text",
		MapOutKey: "Text", MapOutVal: "Text",
		RedOutKey: "Text", RedOutVal: "Text",
	}
}

// expandSpec emits exactly 3 records per input record under one key.
func expandSpec() *mrjob.Spec {
	return &mrjob.Spec{
		Name: "expand3",
		Source: `
func map(key, line) {
	emit("k", line);
	emit("k", line);
	emit("k", line);
}
func reduce(key, values) { emit(key, len(values)); }`,
		InFormatter: "TextInputFormat", OutFormatter: "TextOutputFormat",
		Mapper: "ExM", Reducer: "CntR",
		MapInKey: "LongWritable", MapInVal: "Text",
		MapOutKey: "Text", MapOutVal: "Text",
		RedOutKey: "Text", RedOutVal: "IntWritable",
	}
}

func TestMeasureIdentityJob(t *testing.T) {
	ds := data.New("d", data.KindTeraGen, data.GB, 1)
	st, err := Measure(identitySpec(), ds, []int{0}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.MapPairsSel != 1 {
		t.Errorf("MapPairsSel = %v, want exactly 1 for identity map", st.MapPairsSel)
	}
	if st.RedPairsSel != 1 {
		t.Errorf("RedPairsSel = %v, want 1 for identity reduce", st.RedPairsSel)
	}
	// TeraGen records are 100 bytes including the newline.
	if math.Abs(st.AvgInRecWidth-100) > 1 {
		t.Errorf("AvgInRecWidth = %v, want ~100", st.AvgInRecWidth)
	}
	// Unique keys: distinct-key growth is linear.
	if st.HeapsBeta < 0.95 {
		t.Errorf("HeapsBeta = %v, want ~1 for all-unique keys", st.HeapsBeta)
	}
	if st.CombinePairsSel != 1 || st.CombineSizeSel != 1 {
		t.Error("combiner-less job must report combine selectivities of 1")
	}
}

func TestMeasureExpandJob(t *testing.T) {
	ds := data.New("d", data.KindTeraGen, data.GB, 1)
	st, err := Measure(expandSpec(), ds, []int{0, 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.MapPairsSel != 3 {
		t.Errorf("MapPairsSel = %v, want exactly 3", st.MapPairsSel)
	}
	// All records share one key: distinct growth saturates immediately.
	if st.HeapsBeta > 0.3 {
		t.Errorf("HeapsBeta = %v, want near the floor for a single-key job", st.HeapsBeta)
	}
	// Reduce emits one record per group.
	if st.RedOutPerGroupRecs != 1 {
		t.Errorf("RedOutPerGroupRecs = %v, want 1", st.RedOutPerGroupRecs)
	}
}

func TestMeasureStepsScaleWithWork(t *testing.T) {
	ds := data.New("d", data.KindWikipedia, data.GB, 1)
	light, err := Measure(identitySpec(), ds, []int{0}, 100)
	if err != nil {
		t.Fatal(err)
	}
	heavy := &mrjob.Spec{
		Name: "heavy",
		Source: `
func map(key, line) {
	let words = tokenize(line);
	for (let i = 0; i < len(words); i = i + 1) {
		for (let j = 0; j < len(words); j = j + 1) {
			if (words[i] == words[j]) { emit(words[i], 1); }
		}
	}
}
func reduce(key, values) { emit(key, len(values)); }`,
		InFormatter: "TextInputFormat", OutFormatter: "TextOutputFormat",
		Mapper: "H", Reducer: "R",
		MapInKey: "LongWritable", MapInVal: "Text",
		MapOutKey: "Text", MapOutVal: "IntWritable",
		RedOutKey: "Text", RedOutVal: "IntWritable",
	}
	heavyStats, err := Measure(heavy, ds, []int{0}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if heavyStats.MapStepsPerRec < 50*light.MapStepsPerRec {
		t.Errorf("quadratic map steps/rec %.0f not >> identity %.0f",
			heavyStats.MapStepsPerRec, light.MapStepsPerRec)
	}
}

func TestMeasureCPUWeights(t *testing.T) {
	ds := data.New("d", data.KindTeraGen, data.GB, 1)
	base, err := Measure(identitySpec(), ds, []int{0}, 50)
	if err != nil {
		t.Fatal(err)
	}
	weighted := identitySpec()
	weighted.MapCPUWeight = 10
	weighted.ReduceCPUWeight = 4
	wst, err := Measure(weighted, ds, []int{0}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wst.MapStepsPerRec-10*base.MapStepsPerRec) > 1e-6 {
		t.Errorf("MapCPUWeight: %v, want %v", wst.MapStepsPerRec, 10*base.MapStepsPerRec)
	}
	if math.Abs(wst.RedStepsPerRec-4*base.RedStepsPerRec) > 1e-6 {
		t.Errorf("ReduceCPUWeight: %v, want %v", wst.RedStepsPerRec, 4*base.RedStepsPerRec)
	}
}

func TestMeasureErrors(t *testing.T) {
	ds := data.New("d", data.KindTeraGen, data.GB, 1)
	if _, err := Measure(identitySpec(), ds, nil, 10); err == nil {
		t.Error("Measure with no splits should fail")
	}
	bad := identitySpec()
	bad.Source = `func map(key, line) { emit(undefinedvar, 1); } func reduce(k, v) {}`
	if _, err := Measure(bad, ds, []int{0}, 10); err == nil {
		t.Error("Measure should surface runtime errors from map")
	}
}

func TestMeasureDeterministic(t *testing.T) {
	ds := data.New("d", data.KindWikipedia, 8*data.GB, 3)
	a, err := Measure(identitySpec(), ds, []int{2, 5}, 80)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(identitySpec(), ds, []int{2, 5}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("Measure not deterministic:\n%+v\n%+v", a, b)
	}
}

// fitKeys fits Heaps' law to a key stream.
func fitKeys(keys []string) (k, beta float64) {
	seen := map[string]bool{}
	half := 0
	for i, key := range keys {
		if i == len(keys)/2 {
			half = len(seen)
		}
		seen[key] = true
	}
	return fitHeaps(len(keys), half, len(seen))
}

func TestFitHeaps(t *testing.T) {
	// All-unique keys: beta ~ 1.
	var unique []string
	for i := 0; i < 4096; i++ {
		unique = append(unique, fmt.Sprintf("k%d", i))
	}
	if _, beta := fitKeys(unique); beta < 0.98 {
		t.Errorf("unique keys beta = %v, want ~1", beta)
	}
	// Constant key: beta at the floor.
	constant := make([]string, 4096)
	for i := range constant {
		constant[i] = "same"
	}
	if _, beta := fitKeys(constant); beta > 0.05 {
		t.Errorf("constant key beta = %v, want floor", beta)
	}
	// Saturating vocabulary: beta strictly between.
	var vocab []string
	for i := 0; i < 8192; i++ {
		vocab = append(vocab, fmt.Sprintf("w%d", i%50))
	}
	if _, beta := fitKeys(vocab); beta > 0.5 {
		t.Errorf("saturating vocab beta = %v, want small", beta)
	}
	// Degenerate inputs do not panic.
	if k, beta := fitKeys(nil); k != 1 || beta != 1 {
		t.Errorf("fitKeys(nil) = %v, %v", k, beta)
	}
	if _, beta := fitKeys([]string{"a", "a", "b"}); beta <= 0 || beta > 1 {
		t.Errorf("tiny input beta = %v out of range", beta)
	}
}

func TestPickSplits(t *testing.T) {
	r := newTestRand()
	got := PickSplits(100, 5, r)
	if len(got) != 5 {
		t.Fatalf("got %d splits", len(got))
	}
	seen := map[int]bool{}
	for i, s := range got {
		if s < 0 || s >= 100 {
			t.Errorf("split %d out of range", s)
		}
		if seen[s] {
			t.Errorf("duplicate split %d", s)
		}
		seen[s] = true
		if i > 0 && got[i] < got[i-1] {
			t.Error("splits not sorted")
		}
	}
	all := PickSplits(3, 10, r)
	if len(all) != 3 {
		t.Errorf("asking for more than total should return all: %v", all)
	}
}
