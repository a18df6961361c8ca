package engine

import (
	"math/rand"
	"sort"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
)

// ScheduleResult is the outcome of packing a job's tasks onto the
// cluster's slots.
type ScheduleResult struct {
	MakespanMs float64

	// Per-task noise factors actually drawn, so the caller can build
	// profile phase averages consistent with the schedule.
	MapNoise    []float64
	ReduceNoise []float64
}

// ScheduleJob simulates executing numMaps map tasks and cfg.ReduceTasks
// reduce tasks on the cluster. Each task's duration is its modelled time
// scaled by a per-placement node-utilization noise factor (§4.1.1), and
// a task may fail and rerun (cluster.TaskFailureProb). rng must be
// non-nil: it draws the noise and the failures. ExpectedMakespan gives
// the noise-free, failure-free makespan of the same schedule without
// simulating it. Reducers are launched once the slowstart fraction of
// maps has completed; their shuffle phase overlaps the remaining map
// waves but cannot finish before the last map does.
func ScheduleJob(mt MapTaskModel, rt ReduceTaskModel, numMaps int, cfg conf.Config, cl *cluster.Cluster, rng *rand.Rand) ScheduleResult {
	res := ScheduleResult{}
	// attempts returns how many executions a task needs: a failed task
	// is detected at the end of its attempt and restarted (possibly on
	// another node), so each failure costs a full task duration.
	attempts := func() int {
		n := 1
		if cl.TaskFailureProb <= 0 {
			return n
		}
		for rng.Float64() < cl.TaskFailureProb && n < 4 {
			n++
		}
		return n
	}

	// --- Map phase: greedy packing onto map slots. ---
	slots := cl.MapSlots()
	if slots < 1 {
		slots = 1
	}
	slotFree := make([]float64, slots)
	finishes := make([]float64, 0, numMaps)
	res.MapNoise = make([]float64, 0, numMaps)
	for i := 0; i < numMaps; i++ {
		// Earliest-free slot.
		best := 0
		for s := 1; s < slots; s++ {
			if slotFree[s] < slotFree[best] {
				best = s
			}
		}
		noise := cl.NodeNoise(rng)
		res.MapNoise = append(res.MapNoise, noise)
		end := slotFree[best] + mt.TotalMs*noise*float64(attempts())
		slotFree[best] = end
		finishes = append(finishes, end)
	}
	sort.Float64s(finishes)
	mapsDone := 0.0
	if len(finishes) > 0 {
		mapsDone = finishes[len(finishes)-1]
	}

	// Time at which the slowstart fraction of maps has completed.
	slowIdx := int(cfg.ReduceSlowstart * float64(len(finishes)))
	if slowIdx >= len(finishes) {
		slowIdx = len(finishes) - 1
	}
	slowstartAt := 0.0
	if slowIdx >= 0 && len(finishes) > 0 {
		slowstartAt = finishes[slowIdx]
	}

	// --- Reduce phase. ---
	rSlots := cl.ReduceSlots()
	if rSlots < 1 {
		rSlots = 1
	}
	rSlotFree := make([]float64, rSlots)
	for s := range rSlotFree {
		rSlotFree[s] = slowstartAt
	}
	res.ReduceNoise = make([]float64, 0, cfg.ReduceTasks)
	makespan := mapsDone
	for i := 0; i < cfg.ReduceTasks; i++ {
		best := 0
		for s := 1; s < rSlots; s++ {
			if rSlotFree[s] < rSlotFree[best] {
				best = s
			}
		}
		noise := cl.NodeNoise(rng)
		res.ReduceNoise = append(res.ReduceNoise, noise)
		start := rSlotFree[best]
		// Shuffle proceeds from the reducer's start, overlapping map
		// execution, but the last map output only becomes available at
		// mapsDone.
		shuffleEnd := start + rt.ShuffleMs*noise
		if shuffleEnd < mapsDone {
			shuffleEnd = mapsDone
		}
		rest := (rt.TotalMs - rt.ShuffleMs) * noise
		end := shuffleEnd + rest
		// A failed reducer restarts from scratch (including its shuffle)
		// after the failure is detected.
		for extra := attempts() - 1; extra > 0; extra-- {
			end += rt.ShuffleMs*noise + rest
		}
		rSlotFree[best] = end
		if end > makespan {
			makespan = end
		}
	}
	res.MakespanMs = makespan
	return res
}

// ExpectedMakespan is the makespan ScheduleJob computes when every
// noise factor is 1 and no task fails, bit for bit, evaluated one wave
// at a time instead of one task at a time. Every map task then takes
// mt.TotalMs, so the greedy packing fills all map slots wave by wave,
// and the end of each wave is the previous end plus mt.TotalMs — built
// here by the same repeated addition. The reduce waves follow from the
// same max(start+Shuffle, mapsDone) + (Total-Shuffle) step. The What-If
// engine predicts with it in O(map waves + reduce waves), allocating
// nothing.
//
// Precondition: task times are non-negative and rt.TotalMs >=
// rt.ShuffleMs. ModelMapTask and ModelReduceTask guarantee both: their
// totals sum non-negative phase times, the shuffle among them. Wave
// ends then never decrease, which is what lets the greedy slot choice
// collapse into whole waves.
func ExpectedMakespan(mt MapTaskModel, rt ReduceTaskModel, numMaps int, cfg conf.Config, cl *cluster.Cluster) float64 {
	slots := max(cl.MapSlots(), 1)
	// The sorted finish index of the slowstart fraction, and the wave
	// that holds it.
	slowIdx := min(int(cfg.ReduceSlowstart*float64(numMaps)), numMaps-1)
	slowWave := slowIdx / slots
	mapsDone, slowstartAt := 0.0, 0.0
	for w := 0; w*slots < numMaps; w++ {
		mapsDone += mt.TotalMs
		if w == slowWave && slowIdx >= 0 {
			slowstartAt = mapsDone
		}
	}

	rSlots := max(cl.ReduceSlots(), 1)
	end, rest := slowstartAt, rt.TotalMs-rt.ShuffleMs
	makespan := mapsDone
	for w := 0; w*rSlots < cfg.ReduceTasks; w++ {
		end = max(end+rt.ShuffleMs, mapsDone) + rest
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}

// meanOf returns the arithmetic mean of xs (1 if empty), used to scale
// modelled phase times into observed profile phase times.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
