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

// kvPair is one intermediate record. seq is its arrival index, set by
// callGroups to keep the sort that groups pairs stable.
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
	c.pairs = append(c.pairs, kvPair{k: k, v: v})
	c.countEmitter.Emit(k, v)
}

// splitTask is what one split's map task, and its combiner, measured.
type splitTask struct {
	records, inBytes   int64
	keys               []string // map output keys in emit order
	mapBytes, mapSteps int64
	combineSteps       int64
	out                collectEmitter // the combiner's output, or the map's without one
}

// sampleRun is one execution of a job over sampled records: a map task
// (and combiner) per split, then one reduce over their merged output.
type sampleRun struct {
	tasks     []splitTask
	redGroups int
	redSteps  int64
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
	newInterp := func() *jobdsl.Interp {
		in := jobdsl.NewInterp(prog)
		in.Params = spec.Params
		return in
	}
	run := &sampleRun{tasks: make([]splitTask, len(splits))}
	errs := make([]error, len(splits))
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		// The first task's output is sized for one pair per record.
		r := &taskRunner{in: newInterp(), outCap: recsPerSplit}
		// Splits are claimed in index order, so every split below a
		// failed one has been claimed and finishes.
		for i := int(next.Add(1) - 1); i < len(splits) && !failed.Load(); i = int(next.Add(1) - 1) {
			if run.tasks[i], errs[i] = r.measureSplit(spec, ds, splits[i], recsPerSplit); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	if workers := min(runtime.GOMAXPROCS(0), len(splits)); workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	redIn := run.tasks[0].out.pairs
	if len(run.tasks) > 1 {
		n := 0
		for i := range run.tasks {
			n += len(run.tasks[i].out.pairs)
		}
		redIn = make([]kvPair, 0, n)
		for i := range run.tasks {
			redIn = append(redIn, run.tasks[i].out.pairs...)
		}
	}
	in := newInterp()
	if run.redGroups, err = callGroups(in, "reduce", redIn, red); err != nil {
		return nil, fmt.Errorf("engine: reduce of job %q failed: %w", spec.Name, err)
	}
	run.redSteps = in.Steps()
	return run, nil
}

// taskRunner runs map tasks one after another. A task's map output is
// its own when the job has no combiner; otherwise the combiner consumes
// it, and the next task reuses the buffer.
type taskRunner struct {
	in     *jobdsl.Interp
	spill  []kvPair // map output the last combiner consumed
	outCap int      // the last task's output length: the next one's capacity
}

// measureSplit runs one split's map task, then the job's combiner over
// the task's grouped output, as Hadoop does during spills.
func (r *taskRunner) measureSplit(spec *mrjob.Spec, ds *data.Dataset, split, recs int) (splitTask, error) {
	t := splitTask{out: collectEmitter{pairs: make([]kvPair, 0, r.outCap)}}
	em := &t.out
	if spec.HasCombiner() {
		em = &collectEmitter{pairs: slices.Grow(r.spill[:0], recs)}
	}
	r.in.ResetSteps()
	for _, rec := range ds.SampleRecords(split, recs) {
		t.records++
		t.inBytes += int64(len(rec.Value)) + 1
		if _, err := r.in.Call("map", []jobdsl.Value{jobdsl.Str(rec.Key), jobdsl.Str(rec.Value)}, em); err != nil {
			return t, fmt.Errorf("engine: map of job %q failed on split %d: %w", spec.Name, split, err)
		}
	}
	t.mapSteps, t.mapBytes = r.in.Steps(), em.bytes
	t.keys = make([]string, len(em.pairs))
	for i, p := range em.pairs {
		t.keys[i] = p.k
	}
	if spec.HasCombiner() {
		r.in.ResetSteps()
		if _, err := callGroups(r.in, "combine", em.pairs, &t.out); err != nil {
			return t, fmt.Errorf("engine: combine of job %q failed on split %d: %w", spec.Name, split, err)
		}
		t.combineSteps = r.in.Steps()
		r.spill = em.pairs
	}
	r.outCap = len(t.out.pairs)
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
	keys := make([][]string, len(run.tasks))
	for i := range run.tasks {
		t := &run.tasks[i]
		inRecs += t.records
		inBytes += t.inBytes
		mapOutRecs += int64(len(t.keys))
		mapOutBytes += t.mapBytes
		mapSteps += t.mapSteps
		combineSteps += t.combineSteps
		redInRecs += t.out.recs
		redInBytes += t.out.bytes
		keys[i] = t.keys
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
	st.HeapsK, st.HeapsBeta = fitHeaps(keys...)

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

// fitHeaps fits distinct(n) ~ K * n^Beta to the observed key stream,
// the chunks in order, by least squares over log-log points sampled at
// n/8, n/4, n/2, and n. A saturating vocabulary (word count) yields a
// small Beta; key spaces that keep growing (co-occurring pairs) yield
// Beta near 1.
func fitHeaps(chunks ...[]string) (k, beta float64) {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	if n == 0 {
		return 1, 1
	}
	marks := []int{n / 8, n / 4, n / 2, n}
	seen := make(map[string]struct{}, n)
	var xs, ys []float64
	i, mi := 0, 0
	for _, c := range chunks {
		for _, key := range c {
			seen[key] = struct{}{}
			i++
			for mi < len(marks) && i == marks[mi] {
				xs = append(xs, logf(float64(marks[mi])))
				ys = append(ys, logf(float64(len(seen))))
				mi++
			}
		}
	}
	if n < 8 {
		if len(seen) == n {
			return 1, 1
		}
		return float64(len(seen)), 0.5
	}
	// Use the tail slope (the last two points): key spaces saturate, so
	// the local growth rate at the largest observed n extrapolates far
	// better than a global fit that is dominated by the unsaturated head.
	l := len(xs)
	if l < 2 || xs[l-1] == xs[l-2] {
		return 1, 1
	}
	beta = (ys[l-1] - ys[l-2]) / (xs[l-1] - xs[l-2])
	if beta < 0.02 {
		beta = 0.02
	}
	if beta > 1 {
		beta = 1
	}
	k = expf(ys[l-1] - beta*xs[l-1])
	if k <= 0 {
		k = 1
	}
	return k, beta
}

func logf(x float64) float64 { return math.Log(x) }
func expf(x float64) float64 { return math.Exp(x) }

func ratio(num, den, def float64) float64 {
	if den == 0 {
		return def
	}
	return num / den
}

// callGroups sorts pairs in place by key, keeping arrival order within
// a key, and calls fn once per key with (key, values), as Hadoop's
// sort/merge feeds a combiner or reducer. It returns the group count.
// One values buffer serves every group: emit copies its arguments into
// strings and DSL append copies its list, so no call keeps it.
func callGroups(in *jobdsl.Interp, fn string, pairs []kvPair, em jobdsl.Emitter) (int, error) {
	for i := range pairs {
		pairs[i].seq = i
	}
	slices.SortFunc(pairs, func(a, b kvPair) int {
		if c := strings.Compare(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	var buf []jobdsl.Value
	groups := 0
	for i := 0; i < len(pairs); groups++ {
		buf = buf[:0]
		j := i
		for ; j < len(pairs) && pairs[j].k == pairs[i].k; j++ {
			buf = append(buf, jobdsl.Str(pairs[j].v))
		}
		if _, err := in.Call(fn, []jobdsl.Value{jobdsl.Str(pairs[i].k), jobdsl.List(buf)}, em); err != nil {
			return groups, err
		}
		i = j
	}
	return groups, nil
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
