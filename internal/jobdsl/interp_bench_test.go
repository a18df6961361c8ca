package jobdsl_test

import (
	"strconv"
	"testing"

	"pstorm/internal/jobdsl"
	"pstorm/internal/workloads"
)

// BenchmarkInterpCall times the interpreter on three Table 6.1 function
// shapes, one op being the function called once per input: pigmix-l3's
// map (split plus indexing) over 100 PigMix records, the co-occurrence
// stripes map (maps built and rendered per word) over 20 text lines,
// and the sum reduce over one key's 100 values.
func BenchmarkInterpCall(b *testing.B) {
	values := make([]jobdsl.Value, 100)
	for i := range values {
		values[i] = jobdsl.Str(strconv.Itoa(i))
	}
	cases := []struct {
		name, job, fn, dataset string
		records                int
	}{
		{"pigmix-map", "pigmix-l3", "map", "pigmix-1g", 100},
		{"stripes-map", "cooccurrence-stripes", "map", "randomtext-1g", 20},
		{"sum-reduce", "pigmix-l3", "reduce", "", 0},
	}
	for _, c := range cases {
		spec, err := workloads.JobByName(c.job)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := spec.Program()
		if err != nil {
			b.Fatal(err)
		}
		// Each call's arguments, built before the clock starts.
		calls := [][]jobdsl.Value{{jobdsl.Str("k"), jobdsl.List(values)}}
		if c.dataset != "" {
			ds, err := workloads.DatasetByName(c.dataset)
			if err != nil {
				b.Fatal(err)
			}
			calls = calls[:0]
			for _, rec := range ds.SampleRecords(0, c.records) {
				calls = append(calls, []jobdsl.Value{jobdsl.Str(rec.Key), jobdsl.Str(rec.Value)})
			}
		}
		b.Run(c.name, func(b *testing.B) {
			in := jobdsl.NewInterp(prog)
			in.Params = spec.Params
			em := jobdsl.EmitterFunc(func(string, string) {})
			b.ReportAllocs()
			for b.Loop() {
				in.ResetSteps()
				for _, args := range calls {
					if _, err := in.Call(c.fn, args, em); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
