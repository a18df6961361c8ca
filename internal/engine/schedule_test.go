package engine

import (
	"math/rand"
	"testing"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
)

// TestExpectedMakespanMatchesSchedule pins ExpectedMakespan to the
// task-by-task simulation bit for bit. The oracle is ScheduleJob on a
// cluster without noise or failures: there NodeNoise is exactly 1 and
// every task runs once, so the simulation computes the very schedule
// ExpectedMakespan folds into waves.
func TestExpectedMakespanMatchesSchedule(t *testing.T) {
	const cases = 100_000
	r := rand.New(rand.NewSource(34))
	// Task lengths: mostly fractional milliseconds, whose repeated sums
	// round differently from a product, with whole and zero lengths mixed
	// in.
	length := func() float64 {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return float64(r.Intn(5000))
		default:
			return r.Float64() * 1e5
		}
	}
	for i := 0; i < cases; i++ {
		cl := cluster.Default16()
		cl.NoiseStdDev, cl.TaskFailureProb = 0, 0
		cl.Workers = 1 + r.Intn(20)
		cl.MapSlotsPerNode = 1 + r.Intn(3)
		cl.ReduceSlotsPerNode = 1 + r.Intn(3)
		mapSlots, redSlots := cl.MapSlots(), cl.ReduceSlots()

		// numMaps below, equal to and a multiple of the slot count.
		var numMaps int
		switch r.Intn(4) {
		case 0:
			numMaps = 1 + r.Intn(mapSlots)
		case 1:
			numMaps = mapSlots
		case 2:
			numMaps = mapSlots * (1 + r.Intn(50))
		default:
			numMaps = 1 + r.Intn(3000)
		}
		cfg := conf.Default()
		switch r.Intn(4) {
		case 0:
			cfg.ReduceSlowstart = 0
		case 1:
			cfg.ReduceSlowstart = 1
		default:
			cfg.ReduceSlowstart = r.Float64()
		}
		// Reducers below, equal to and above the reduce-slot count.
		switch r.Intn(3) {
		case 0:
			cfg.ReduceTasks = 1 + r.Intn(redSlots)
		case 1:
			cfg.ReduceTasks = redSlots
		default:
			cfg.ReduceTasks = redSlots + 1 + r.Intn(120)
		}
		mt := MapTaskModel{TotalMs: length()}
		total, shuffle := length(), length()
		if shuffle > total {
			total, shuffle = shuffle, total
		}
		rt := ReduceTaskModel{TotalMs: total, ShuffleMs: shuffle}

		want := ScheduleJob(mt, rt, numMaps, cfg, cl, newSeededRand(int64(i))).MakespanMs
		if got := ExpectedMakespan(mt, rt, numMaps, cfg, cl); got != want {
			t.Fatalf("case %d: maps=%d slots=%d/%d slowstart=%v reducers=%d mt=%v rt=%+v: ExpectedMakespan %v, ScheduleJob %v",
				i, numMaps, mapSlots, redSlots, cfg.ReduceSlowstart, cfg.ReduceTasks, mt.TotalMs, rt, got, want)
		}
	}
}
