package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pstorm/internal/data"
	"pstorm/internal/jobdsl"
	"pstorm/internal/mrjob"
)

// Stats are the job statistics measured by actually executing the job's
// map/combine/reduce DSL functions over sampled input records. They are
// the scale-free quantities (selectivities, widths, per-record costs)
// from which the analytical phase model computes task times at the
// dataset's nominal size.
type Stats struct {
	// Measured sample sizes.
	SampledRecords int
	SampledSplits  int

	// Input side.
	AvgInRecWidth float64 // bytes per input record (value + newline)

	// Map function.
	MapSizeSel     float64 // output bytes / input bytes
	MapPairsSel    float64 // output records / input records
	MapOutRecWidth float64 // bytes per map output record
	MapStepsPerRec float64 // interpreter steps per input record

	// Combine function (1.0 selectivities if the job has no combiner).
	CombineSizeSel     float64
	CombinePairsSel    float64
	CombineStepsPerRec float64 // steps per combine input record

	// HeapsK and HeapsBeta parameterize the distinct-key growth model
	// fitted from the sample: distinct(n) ~ K * n^Beta. Aggregation jobs
	// (word count) have small Beta — their combiners collapse output to
	// a saturating vocabulary — while pair-expansion jobs (word
	// co-occurrence) have Beta near 1 and stay shuffle-heavy. This is
	// what separates Table 6.2's 12-minute word count from its
	// 824-minute co-occurrence run.
	HeapsK    float64
	HeapsBeta float64

	// CombineOutWidth is bytes per combine-output record.
	CombineOutWidth float64

	// RedOutPerGroupRecs is reduce output records emitted per key group.
	RedOutPerGroupRecs float64

	// Reduce function.
	RedSizeSel     float64 // output bytes / input bytes
	RedPairsSel    float64 // output records / input records
	RedInRecWidth  float64
	RedOutRecWidth float64
	RedStepsPerRec float64 // steps per reduce input record
}

// kvPair is one intermediate record. seq is its arrival index in its
// task's output, which keeps the sort that groups pairs stable.
type kvPair struct {
	k, v string
	seq  int
}

// countEmitter counts emitted records and their serialized bytes: key +
// value + framing overhead (Hadoop IFile writes length-prefixed key and
// value).
type countEmitter struct{ recs, bytes int64 }

func (c *countEmitter) Emit(k, v string) {
	c.recs++
	c.bytes += int64(len(k) + len(v) + 8)
}

// collectEmitter also keeps what was emitted.
type collectEmitter struct {
	countEmitter
	pairs []kvPair
}

func (c *collectEmitter) Emit(k, v string) {
	c.pairs = append(c.pairs, kvPair{k, v, int(c.recs)})
	c.countEmitter.Emit(k, v)
}

// splitTask is what one split's map task, and its combiner, measured.
type splitTask struct {
	records, inBytes            int64
	mapRecs, mapBytes, mapSteps int64
	combineSteps                int64
	out                         countEmitter // the combiner's output, or the map's without one
	pairs                       []kvPair     // that output, in its runner's buffer until execute returns
	firsts                      []kvPair     // with a combiner: each map output key's first pair, likewise
}

// sampleRun is one execution of a job over sampled records: a map task
// (and combiner) per split, then one reduce over their merged output.
type sampleRun struct {
	tasks          []splitTask
	redGroups      int
	redSteps       int64
	half, distinct int // distinct map output keys in its first half, in split order, and in all
}

// execute runs spec over recsPerSplit sampled records of each split,
// reducing into red. The splits' tasks run on up to GOMAXPROCS
// goroutines, each with its own Interp (Interps share compiled code and
// keep nothing between calls), and are merged in split order, so the
// result is the same at any core count. An error is the lowest failing
// split's.
func execute(spec *mrjob.Spec, ds *data.Dataset, splits []int, recsPerSplit int, red jobdsl.Emitter) (*sampleRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	prog, err := spec.Program()
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("engine: job %q needs at least one split", spec.Name)
	}
	if recsPerSplit <= 0 {
		recsPerSplit = 200
	}
	rs := make([]*taskRunner, min(runtime.GOMAXPROCS(0), len(splits)))
	for i := range rs {
		rs[i] = runners.Get().(*taskRunner)
		rs[i].in = jobdsl.NewInterp(prog)
		rs[i].in.Params = spec.Params
		defer rs[i].release() // once the reduce has read their outputs
	}
	run := &sampleRun{tasks: make([]splitTask, len(splits))}
	errs := make([]error, len(splits))
	var next atomic.Int64
	var failed atomic.Bool
	work := func(r *taskRunner) {
		// Splits are claimed in index order, so every split below a
		// failed one has been claimed and finishes.
		for i := int(next.Add(1) - 1); i < len(splits) && !failed.Load(); i = int(next.Add(1) - 1) {
			if run.tasks[i], errs[i] = r.measureSplit(spec, ds, splits[i], recsPerSplit); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	if len(rs) == 1 {
		work(rs[0])
	} else {
		var wg sync.WaitGroup
		for _, r := range rs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(r)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// A key's first arrival in the map output is the first pair of its
	// group: in the reduce's merge, or with a combiner in a merge of the
	// tasks' firsts. Either merge is in split order.
	outs, firsts, bases := make([][]kvPair, len(splits)), make([][]kvPair, len(splits)), make([]int, len(splits))
	n := 0
	for i := range run.tasks {
		outs[i], firsts[i], bases[i] = run.tasks[i].pairs, run.tasks[i].firsts, n
		n += int(run.tasks[i].mapRecs)
	}
	count := func(task int, p kvPair) {
		run.distinct++
		if bases[task]+p.seq < n/2 {
			run.half++
		}
	}
	r := rs[0]
	r.in.ResetSteps()
	if spec.HasCombiner() {
		r.callGroups("", firsts, nil, count)
		count = nil
	}
	if run.redGroups, err = r.callGroups("reduce", outs, red, count); err != nil {
		return nil, fmt.Errorf("engine: reduce of job %q failed: %w", spec.Name, err)
	}
	run.redSteps = r.in.Steps()
	return run, nil
}

// taskRunner runs map tasks one after another, and the reduce after
// them. Its buffers outlive its tasks and, through runners, its
// execution: out holds every task's output until the reduce, spill the
// map output one combiner consumes. Past their lengths all is zero.
type taskRunner struct {
	in         *jobdsl.Interp
	spill, out collectEmitter
	firsts     []kvPair       // with a combiner: every task's firsts
	vals       []jobdsl.Value // the values of one group
}

// runners lends task runners, and with them their buffers.
var runners = sync.Pool{New: func() any { return new(taskRunner) }}

// release clears r's buffers, so that they pin no strings, and pools r.
func (r *taskRunner) release() {
	clear(r.spill.pairs)
	clear(r.out.pairs)
	clear(r.firsts)
	clear(r.vals[:cap(r.vals)])
	r.in, r.spill.pairs, r.out.pairs, r.firsts = nil, r.spill.pairs[:0], r.out.pairs[:0], r.firsts[:0]
	runners.Put(r)
}

// measureSplit runs one split's map task, then the job's combiner over
// the task's grouped output, as Hadoop does during spills.
func (r *taskRunner) measureSplit(spec *mrjob.Spec, ds *data.Dataset, split, recs int) (splitTask, error) {
	var t splitTask
	lo, em := len(r.out.pairs), &r.out
	r.out.countEmitter, r.spill = countEmitter{}, collectEmitter{pairs: r.spill.pairs[:0]}
	if spec.HasCombiner() {
		em = &r.spill
	}
	r.in.ResetSteps()
	for _, rec := range ds.SampleRecords(split, recs) {
		t.records++
		t.inBytes += int64(len(rec.Value)) + 1
		if _, err := r.in.Call("map", []jobdsl.Value{jobdsl.Str(rec.Key), jobdsl.Str(rec.Value)}, em); err != nil {
			return t, fmt.Errorf("engine: map of job %q failed on split %d: %w", spec.Name, split, err)
		}
	}
	t.mapRecs, t.mapBytes, t.mapSteps = em.recs, em.bytes, r.in.Steps()
	if spec.HasCombiner() {
		r.in.ResetSteps()
		flo, keep := len(r.firsts), func(_ int, p kvPair) { r.firsts = append(r.firsts, p) }
		if _, err := r.callGroups("combine", [][]kvPair{r.spill.pairs}, &r.out, keep); err != nil {
			return t, fmt.Errorf("engine: combine of job %q failed on split %d: %w", spec.Name, split, err)
		}
		t.combineSteps = r.in.Steps()
		t.firsts = r.firsts[flo:]
		clear(r.spill.pairs)
	}
	t.out, t.pairs = r.out.countEmitter, r.out.pairs[lo:]
	return t, nil
}

// Measure executes the job's functions over recsPerSplit sampled
// records of each of the given splits (at least one) and returns the
// measured statistics.
func Measure(spec *mrjob.Spec, ds *data.Dataset, splits []int, recsPerSplit int) (*Stats, error) {
	var red countEmitter
	run, err := execute(spec, ds, splits, recsPerSplit, &red)
	if err != nil {
		return nil, err
	}
	// A task's output, the combiner's or else the map's, is reduce input.
	var inRecs, inBytes, mapOutRecs, mapOutBytes, mapSteps, combineSteps, redInRecs, redInBytes int64
	for i := range run.tasks {
		t := &run.tasks[i]
		inRecs += t.records
		inBytes += t.inBytes
		mapOutRecs += t.mapRecs
		mapOutBytes += t.mapBytes
		mapSteps += t.mapSteps
		combineSteps += t.combineSteps
		redInRecs += t.out.recs
		redInBytes += t.out.bytes
	}
	if inRecs == 0 {
		return nil, fmt.Errorf("engine: dataset %q produced no records", ds.Name)
	}

	st := &Stats{SampledSplits: len(splits), SampledRecords: int(inRecs)}
	st.AvgInRecWidth = ratio(float64(inBytes), float64(inRecs), 1)
	st.MapSizeSel = ratio(float64(mapOutBytes), float64(inBytes), 0)
	st.MapPairsSel = ratio(float64(mapOutRecs), float64(inRecs), 0)
	st.MapOutRecWidth = ratio(float64(mapOutBytes), float64(mapOutRecs), 1)
	st.MapStepsPerRec = ratio(float64(mapSteps), float64(inRecs), 1)
	if spec.MapCPUWeight > 0 {
		st.MapStepsPerRec *= spec.MapCPUWeight
	}
	st.HeapsK, st.HeapsBeta = fitHeaps(int(mapOutRecs), run.half, run.distinct)

	if spec.HasCombiner() {
		st.CombineSizeSel = ratio(float64(redInBytes), float64(mapOutBytes), 1)
		st.CombinePairsSel = ratio(float64(redInRecs), float64(mapOutRecs), 1)
		st.CombineStepsPerRec = ratio(float64(combineSteps), float64(mapOutRecs), 0)
		st.CombineOutWidth = ratio(float64(redInBytes), float64(redInRecs), st.MapOutRecWidth)
	} else {
		st.CombineSizeSel, st.CombinePairsSel = 1, 1
		st.CombineOutWidth = st.MapOutRecWidth
	}
	st.RedOutPerGroupRecs = ratio(float64(red.recs), float64(run.redGroups), 0)

	st.RedSizeSel = ratio(float64(red.bytes), float64(redInBytes), 0)
	st.RedPairsSel = ratio(float64(red.recs), float64(redInRecs), 0)
	st.RedInRecWidth = ratio(float64(redInBytes), float64(redInRecs), 1)
	st.RedOutRecWidth = ratio(float64(red.bytes), float64(red.recs), 1)
	st.RedStepsPerRec = ratio(float64(run.redSteps), float64(redInRecs), 1)
	if spec.ReduceCPUWeight > 0 {
		st.RedStepsPerRec *= spec.ReduceCPUWeight
	}
	return st, nil
}

// fitHeaps fits distinct(n) ~ K * n^Beta to a stream of n keys, half of
// them distinct among its first n/2 and all in the whole. It takes the
// tail slope, from n/2 to n: key spaces saturate, so the local growth
// rate at the largest observed n extrapolates far better than a global
// fit that is dominated by the unsaturated head. A saturating
// vocabulary (word count) yields a small Beta; key spaces that keep
// growing (co-occurring pairs) yield Beta near 1.
func fitHeaps(n, half, all int) (k, beta float64) {
	if n == 0 {
		return 1, 1
	}
	if n < 8 {
		if all == n {
			return 1, 1
		}
		return float64(all), 0.5
	}
	x, y := math.Log(float64(n)), math.Log(float64(all))
	beta = min(max((y-math.Log(float64(half)))/(x-math.Log(float64(n/2))), 0.02), 1)
	k = math.Exp(y - beta*x)
	if k <= 0 {
		k = 1
	}
	return k, beta
}

func ratio(num, den, def float64) float64 {
	if den == 0 {
		return def
	}
	return num / den
}

// callGroups calls fn once per key of runs, in key order, with the
// key's values in arrival order, as Hadoop's sort/merge feeds a
// combiner or reducer, and returns the group count; fn "" calls
// nothing. It sorts each run in place by key and seq, and merges the
// runs in order: a stable sort of their concatenation, without building
// it. first, unless nil, gets each group's first pair and its run. One
// values buffer serves every group: emit copies its arguments into
// strings and DSL append copies its list, so no call keeps it.
func (r *taskRunner) callGroups(fn string, runs [][]kvPair, em jobdsl.Emitter, first func(run int, p kvPair)) (int, error) {
	for _, run := range runs {
		slices.SortFunc(run, func(a, b kvPair) int {
			if c := strings.Compare(a.k, b.k); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}
	h := make([]int, len(runs)) // each run's next pair
	for groups := 0; ; groups++ {
		lo := -1 // the first run whose head has the least key
		for i, run := range runs {
			if h[i] < len(run) && (lo < 0 || run[h[i]].k < runs[lo][h[lo]].k) {
				lo = i
			}
		}
		if lo < 0 {
			return groups, nil
		}
		key := runs[lo][h[lo]].k
		if first != nil {
			first(lo, runs[lo][h[lo]])
		}
		r.vals = r.vals[:0]
		for i := lo; i < len(runs); i++ {
			for ; h[i] < len(runs[i]) && runs[i][h[i]].k == key; h[i]++ {
				r.vals = append(r.vals, jobdsl.Str(runs[i][h[i]].v))
			}
		}
		if fn == "" {
			continue
		}
		if _, err := r.in.Call(fn, []jobdsl.Value{jobdsl.Str(key), jobdsl.List(r.vals)}, em); err != nil {
			return groups, err
		}
	}
}

// PickSplits selects n distinct split indices (of total) using r.
func PickSplits(total, n int, r *rand.Rand) []int {
	if n >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := r.Perm(total)
	out := append([]int(nil), perm[:n]...)
	sort.Ints(out)
	return out
}
