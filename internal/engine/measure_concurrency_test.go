package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
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
const measureAllocs = 7335

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

// TestGroupsKeepArrivalOrder checks callGroups' sort: keys ascending,
// and within a key the values in the order they were emitted.
func TestGroupsKeepArrivalOrder(t *testing.T) {
	spec := identitySpec()
	prog, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}
	var pairs []kvPair
	for i := range 300 {
		pairs = append(pairs, kvPair{k: fmt.Sprint(i * 7 % 5), v: fmt.Sprint(i)})
	}
	want := slices.Clone(pairs)
	slices.SortStableFunc(want, func(a, b kvPair) int { return strings.Compare(a.k, b.k) })
	var out collectEmitter
	groups, err := callGroups(jobdsl.NewInterp(prog), "reduce", pairs, &out)
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
