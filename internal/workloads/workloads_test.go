package workloads

import (
	"testing"

	"pstorm/internal/engine"
	"pstorm/internal/jobdsl"
)

// TestValidateAll parses and validates every benchmark job and
// resolves every dataset it names.
func TestValidateAll(t *testing.T) {
	for _, e := range Benchmark() {
		if err := e.Spec.Validate(); err != nil {
			t.Fatalf("%s: %v", e.Spec.Name, err)
		}
		for _, dn := range e.DatasetNames {
			if _, err := DatasetByName(dn); err != nil {
				t.Fatalf("%s: %v", e.Spec.Name, err)
			}
		}
	}
}

func TestBenchmarkInventory(t *testing.T) {
	entries := Benchmark()
	// Table 6.1: CloudBurst, FIM (3 jobs), ItemCF, Join, WordCount,
	// InvertedIndex, Sort, BigramRelFreq, CoOccurrence pairs+stripes,
	// and the PigMix queries.
	if len(entries) != 12+8 {
		t.Errorf("benchmark has %d entries, want 20", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.Spec.Name] {
			t.Errorf("duplicate job name %q", e.Spec.Name)
		}
		seen[e.Spec.Name] = true
		if len(e.DatasetNames) == 0 {
			t.Errorf("%s has no datasets", e.Spec.Name)
		}
		if e.Domain == "" {
			t.Errorf("%s has no application domain", e.Spec.Name)
		}
	}
	for _, want := range []string{
		"cloudburst", "fim-pass1", "fim-pass2", "fim-pass3", "itemcf", "join",
		"wordcount", "inverted-index", "sort", "bigram-relfreq",
		"cooccurrence-pairs", "cooccurrence-stripes", "pigmix-l1", "pigmix-l8",
	} {
		if !seen[want] {
			t.Errorf("benchmark missing %s", want)
		}
	}
}

func TestJobAndDatasetLookups(t *testing.T) {
	if _, err := JobByName("wordcount"); err != nil {
		t.Error(err)
	}
	if _, err := JobByName("grep"); err != nil {
		t.Error("grep should resolve (extra workload)")
	}
	if _, err := JobByName("no-such-job"); err == nil {
		t.Error("unknown job resolved")
	}
	if _, err := DatasetByName("wiki-35g"); err != nil {
		t.Error(err)
	}
	if _, err := DatasetByName("no-such-data"); err == nil {
		t.Error("unknown dataset resolved")
	}
}

func TestWiki35gHas561Splits(t *testing.T) {
	ds, _ := DatasetByName("wiki-35g")
	// 561 splits -> a 10% Starfish sample is 57 map tasks, matching the
	// "57 of 571 slots" shape of Fig 4.1b.
	if ds.Splits() != 561 {
		t.Errorf("wiki-35g has %d splits, want 561", ds.Splits())
	}
}

// TestJobCFGFamilies pins the CFG identities the matcher relies on: the
// word-pair jobs share reducer CFGs (code reuse) while their map CFGs
// split into the documented families.
func TestJobCFGFamilies(t *testing.T) {
	cfg := func(name string) (string, string) {
		s, err := JobByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return s.MapCFG().String(), s.ReduceCFG().String()
	}
	wcMap, wcRed := cfg("wordcount")
	bgMap, bgRed := cfg("bigram-relfreq")
	coMap, coRed := cfg("cooccurrence-pairs")

	if wcMap != "B L(B)" {
		t.Errorf("wordcount map CFG = %q (Fig 4.2a is a single loop)", wcMap)
	}
	if coMap != "B L(BR(B L(B)|))" {
		t.Errorf("co-occurrence map CFG = %q (Fig 4.2b: loop{branch{loop}})", coMap)
	}
	if wcMap == coMap {
		t.Error("wordcount and co-occurrence map CFGs must differ (§4.1.3)")
	}
	if wcMap != bgMap {
		t.Error("wordcount and bigram map CFGs share the single-loop shape")
	}
	// All three reuse the summing reducer: identical reduce CFGs.
	if wcRed != bgRed || bgRed != coRed {
		t.Error("IntSumReducer CFG should be shared across the word jobs")
	}
}

func TestCoOccurrenceWindowChangesDataFlowNotCFG(t *testing.T) {
	w2 := CoOccurrencePairs(2)
	w8 := CoOccurrencePairs(8)
	if w2.MapCFG().String() != w8.MapCFG().String() {
		t.Error("window size must not change the CFG (it is a runtime parameter)")
	}
	ds, _ := DatasetByName("randomtext-1g")
	s2, err := engine.Measure(w2, ds, []int{0}, 100)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := engine.Measure(w8, ds, []int{0}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s8.MapPairsSel <= 1.5*s2.MapPairsSel {
		t.Errorf("window 8 pairs selectivity %.1f not >> window 2's %.1f (§7.2.1)",
			s8.MapPairsSel, s2.MapPairsSel)
	}
}

// TestBigramTracksCoOccurrence pins the motivating observation of
// Fig 1.3/4.5: with window 2, co-occurrence and bigram relative
// frequency have closely matching map-side data-flow statistics.
func TestBigramTracksCoOccurrence(t *testing.T) {
	ds, _ := DatasetByName("wiki-35g")
	co, err := engine.Measure(CoOccurrencePairs(2), ds, []int{0, 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := engine.Measure(BigramRelativeFrequency(), ds, []int{0, 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	rel := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		r := a / b
		if r < 1 {
			r = 1 / r
		}
		return r
	}
	if rel(co.MapSizeSel, bg.MapSizeSel) > 1.3 {
		t.Errorf("size selectivities diverge: %v vs %v", co.MapSizeSel, bg.MapSizeSel)
	}
	if rel(co.MapPairsSel, bg.MapPairsSel) > 1.3 {
		t.Errorf("pairs selectivities diverge: %v vs %v", co.MapPairsSel, bg.MapPairsSel)
	}
}

// TestJobBehaviours checks the qualitative data-flow identity of each
// job family (the invariants the matching experiments depend on).
func TestJobBehaviours(t *testing.T) {
	measure := func(name string) *engine.Stats {
		spec, err := JobByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := DatasetByName(Benchmark()[indexOf(t, name)].DatasetNames[0])
		if err != nil {
			t.Fatal(err)
		}
		st, err := engine.Measure(spec, ds, []int{0, 1}, 100)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return st
	}
	if st := measure("sort"); st.MapPairsSel != 1 || st.RedPairsSel != 1 {
		t.Errorf("sort must be identity: %+v", st)
	}
	if st := measure("wordcount"); st.MapPairsSel < 5 || st.CombinePairsSel > 0.8 {
		t.Errorf("wordcount should expand in map and combine well: pairs=%v comb=%v",
			st.MapPairsSel, st.CombinePairsSel)
	}
	if st := measure("itemcf"); st.RedOutPerGroupRecs <= 0.1 {
		t.Errorf("itemcf reduce should emit pairs per group, got %v", st.RedOutPerGroupRecs)
	}
	if st := measure("inverted-index"); st.MapSizeSel > 1.5 {
		t.Errorf("stopword-filtered inverted index should shrink data, sizeSel=%v", st.MapSizeSel)
	}
	if st := measure("fim-pass2"); st.MapPairsSel < 10 {
		t.Errorf("pair counting should expand heavily, pairsSel=%v", st.MapPairsSel)
	}
}

func indexOf(t *testing.T, name string) int {
	t.Helper()
	for i, e := range Benchmark() {
		if e.Spec.Name == name {
			return i
		}
	}
	t.Fatalf("job %s not in benchmark", name)
	return -1
}

func TestStripesMergeRoundTrip(t *testing.T) {
	// The stripes reduce parses serialized maps; verify the DSL helper
	// actually merges correctly end to end.
	spec := CoOccurrenceStripes(2)
	prog, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}
	in := jobdsl.NewInterp(prog)
	in.Params = spec.Params
	var out []string
	em := jobdsl.EmitterFunc(func(k, v string) { out = append(out, k+"->"+v) })
	vals := []jobdsl.Value{
		jobdsl.Str("{a:1,b:2}"),
		jobdsl.Str("{b:3,c:1}"),
		jobdsl.Str("{}"),
	}
	if _, err := in.Call("reduce", []jobdsl.Value{jobdsl.Str("w"), jobdsl.List(vals)}, em); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "w->{a:1,b:5,c:1}" {
		t.Errorf("stripe merge = %v", out)
	}
}

func TestGrepParameterSensitivity(t *testing.T) {
	ds, _ := DatasetByName("randomtext-1g")
	common, err := engine.Measure(Grep("a"), ds, []int{0}, 150)
	if err != nil {
		t.Fatal(err)
	}
	rare, err := engine.Measure(Grep("zqzqzq"), ds, []int{0}, 150)
	if err != nil {
		t.Fatal(err)
	}
	if common.MapPairsSel <= rare.MapPairsSel {
		t.Errorf("grep('a') selectivity %v should exceed grep(rare) %v (§7.2.1)",
			common.MapPairsSel, rare.MapPairsSel)
	}
}
