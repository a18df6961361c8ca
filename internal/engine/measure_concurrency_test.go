package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pstorm/internal/data"
	"pstorm/internal/jobdsl"
	"pstorm/internal/workloads"
)

// TestMeasureSameAtAnyCoreCount runs every Table 6.1 job on each of its
// datasets (its first only, under -short) at GOMAXPROCS 1, 2 and 4: the
// splits' tasks run on that many goroutines, and the Stats must be
// byte-identical as JSON.
func TestMeasureSameAtAnyCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	splits := []int{0, 1, 2, 3, 4, 7, 11}
	for _, e := range workloads.Benchmark() {
		names := e.DatasetNames
		if testing.Short() {
			names = names[:1]
		}
		for _, dn := range names {
			ds, err := workloads.DatasetByName(dn)
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				st, err := Measure(e.Spec, ds, splits, 200)
				if err != nil {
					t.Fatalf("%s on %s at GOMAXPROCS %d: %v", e.Spec.Name, dn, procs, err)
				}
				got, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if string(got) != string(want) {
					t.Errorf("%s on %s at GOMAXPROCS %d:\n got  %s\n want %s", e.Spec.Name, dn, procs, got, want)
				}
			}
		}
	}
}

// TestMeasureReportsLowestFailingSplit fails the map task of splits 1
// and 3 — split 1 on its last record, split 3 on its first, so split 3
// usually fails first — and wants split 1's error, from Measure and
// from SampleOutput, with every task goroutine gone once they return.
func TestMeasureReportsLowestFailingSplit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const recs = 40
	ds := data.New("d", data.KindRandomText, 8*data.GB, 3)
	samples := make([][]data.Record, 5)
	for i := range samples {
		samples[i] = ds.SampleRecords(i, recs)
	}
	bad1, bad3 := samples[1][recs-1].Value, samples[3][0].Value
	for i, s := range samples {
		for j, r := range s {
			if (r.Value == bad1 || r.Value == bad3) && !(i == 1 && j == recs-1) && !(i == 3 && j == 0) {
				t.Fatalf("split %d record %d repeats a failing line", i, j)
			}
		}
	}
	spec := identitySpec()
	spec.Source = fmt.Sprintf(`
func map(key, line) {
	if (line == %q || line == %q) {
		emit(key, toint(line));
	}
	emit(key, line);
}
func reduce(key, values) { emit(key, len(values)); }`, bad1, bad3)

	before := runtime.NumGoroutine()
	for range 20 {
		_, err := Measure(spec, ds, []int{0, 1, 2, 3, 4}, recs)
		if err == nil || !strings.Contains(err.Error(), "split 1:") {
			t.Fatalf("Measure: got error %v, want split 1's", err)
		}
		_, err = SampleOutput(spec, ds, []int{0, 1, 2, 3, 4}, recs)
		if err == nil || !strings.Contains(err.Error(), "split 1:") {
			t.Fatalf("SampleOutput: got error %v, want split 1's", err)
		}
	}
	// A goroutine that has called wg.Done may take a moment to exit.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived Measure (had %d before)", runtime.NumGoroutine()-before, before)
		}
		time.Sleep(time.Millisecond)
	}
}

// measureAllocs is what one Measure of pigmix-l3 (group-sum, with a
// combiner) over 200 records of 5 splits allocates. AllocsPerRun runs at
// GOMAXPROCS 1, so the splits run one after another on one Interp.
const measureAllocs = 6309

// TestMeasureAllocs holds one Measure to within 1 % of measureAllocs. A
// change that moves the count on purpose updates the constant and says
// why.
func TestMeasureAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation golden; run without -short and -race")
	}
	spec, err := workloads.JobByName("pigmix-l3")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workloads.DatasetByName("pigmix-1g")
	if err != nil {
		t.Fatal(err)
	}
	splits := []int{0, 1, 2, 3, 4}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Measure(spec, ds, splits, 200); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per Measure", allocs)
	if math.Abs(allocs-measureAllocs) > measureAllocs/100 {
		t.Errorf("one Measure allocated %.0f times, want %d ± 1 %%", allocs, measureAllocs)
	}
}

// measureBytes is what one Measure over 200 records of 5 splits
// allocates, in bytes, at GOMAXPROCS 1 with warm task runners: of
// pigmix-l3 (group-sum, with a combiner) and of cooccurrence-pairs
// (pair expansion, without one).
var measureBytes = []struct {
	job, dataset string
	bytes        float64
}{{"pigmix-l3", "pigmix-1g", 114107}, {"cooccurrence-pairs", "randomtext-1g", 753660}}

// TestMeasureBytes holds one Measure's bytes, from the TotalAlloc delta
// over 20 runs, to within 2 % of measureBytes. A change that moves them
// on purpose updates the table and says why.
func TestMeasureBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation golden; run without -short and -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, m := range measureBytes {
		spec, err := workloads.JobByName(m.job)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := workloads.DatasetByName(m.dataset)
		if err != nil {
			t.Fatal(err)
		}
		measure := func() {
			if _, err := Measure(spec, ds, []int{0, 1, 2, 3, 4}, 200); err != nil {
				t.Fatal(err)
			}
		}
		measure() // sizes the pooled task runner's buffers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			measure()
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / 20
		t.Logf("%s: %.0f bytes per Measure", m.job, got)
		if math.Abs(got-m.bytes) > m.bytes/50 {
			t.Errorf("one Measure of %s allocated %.0f bytes, want %.0f ± 2 %%", m.job, got, m.bytes)
		}
	}
}

// TestConcurrentMeasuresMatchSequential measures three jobs of different
// shapes — a combiner, none, and map-heavy stripes — on four goroutines
// at once, each Measure itself on up to four: every result must be the
// sequential one, byte for byte, though runners and their buffers pass
// between Measures.
func TestConcurrentMeasuresMatchSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type job struct {
		name, dataset string
		want          []byte
	}
	jobs := []job{{name: "pigmix-l3", dataset: "pigmix-1g"}, {name: "cooccurrence-pairs", dataset: "randomtext-1g"}, {name: "cooccurrence-stripes", dataset: "randomtext-1g"}}
	splits := []int{0, 3, 5, 6, 9}
	measure := func(j job) ([]byte, error) {
		spec, err := workloads.JobByName(j.name)
		if err != nil {
			return nil, err
		}
		ds, err := workloads.DatasetByName(j.dataset)
		if err != nil {
			return nil, err
		}
		st, err := Measure(spec, ds, splits, 60)
		if err != nil {
			return nil, err
		}
		return json.Marshal(st)
	}
	for i := range jobs {
		var err error
		if jobs[i].want, err = measure(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2 * len(jobs) {
				j := jobs[(g+k)%len(jobs)]
				got, err := measure(j)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, j.want) {
					t.Errorf("goroutine %d, %s:\n got  %s\n want %s", g, j.name, got, j.want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestGroupsKeepArrivalOrder checks callGroups' sort and merge: keys
// ascending, and within a key the values in the order they were
// emitted, run by run, as one stable sort of the runs' concatenation.
func TestGroupsKeepArrivalOrder(t *testing.T) {
	spec := identitySpec()
	prog, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}
	var pairs []kvPair
	runs := make([][]kvPair, 3)
	for i := range 300 {
		p := kvPair{k: fmt.Sprint(i * 7 % 5), v: fmt.Sprint(i)}
		pairs = append(pairs, p)
		run := i * 3 / 300
		p.seq = len(runs[run])
		runs[run] = append(runs[run], p)
	}
	runs[1] = runs[1][:0] // an empty run merges as nothing
	pairs = append(pairs[:100], pairs[200:]...)
	want := slices.Clone(pairs)
	slices.SortStableFunc(want, func(a, b kvPair) int { return strings.Compare(a.k, b.k) })
	var out collectEmitter
	r := &taskRunner{in: jobdsl.NewInterp(prog)}
	groups, err := r.callGroups("reduce", runs, &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if groups != 5 || len(out.pairs) != len(want) {
		t.Fatalf("%d groups, %d records; want 5, %d", groups, len(out.pairs), len(want))
	}
	for i, p := range out.pairs {
		if p.k != want[i].k || p.v != want[i].v {
			t.Fatalf("record %d = (%s, %s), want (%s, %s)", i, p.k, p.v, want[i].k, want[i].v)
		}
	}
}
