// Package whatif implements the Starfish What-If engine (§2.3.1): given
// an execution profile of a job j = <p, d, r, c>, predict the job's
// runtime for a different configuration c', data size d', or cluster r'.
// The prediction uses the same analytical phase model as the execution
// engine, but parameterized entirely by the profile's data-flow
// statistics and cost factors — no job code is executed. Predictions
// are noise-free expected values: the schedule is evaluated in closed
// form, one wave at a time (engine.ExpectedMakespan).
package whatif

import (
	"fmt"

	"pstorm/internal/cluster"
	"pstorm/internal/conf"
	"pstorm/internal/data"
	"pstorm/internal/engine"
	"pstorm/internal/profile"
)

// Question describes one what-if scenario: the profile standing in for
// the job, and the <d, r, c> it would hypothetically run with.
type Question struct {
	Profile *profile.Profile
	// InputBytes is the size of the input the job would process (d).
	// Zero means "the same input the profile was collected on".
	InputBytes int64
	// Cluster is the target cluster (r).
	Cluster *cluster.Cluster
	// Config is the candidate configuration (c).
	Config conf.Config
}

// Prediction is the What-If engine's answer.
type Prediction struct {
	RuntimeMs   float64
	NumMapTasks int
	MapModel    engine.MapTaskModel
	ReduceModel engine.ReduceTaskModel
}

// Predict answers the what-if question.
func Predict(q Question) (*Prediction, error) {
	if q.Profile == nil {
		return nil, fmt.Errorf("whatif: nil profile")
	}
	if q.Cluster == nil {
		return nil, fmt.Errorf("whatif: nil cluster")
	}
	if err := q.Config.Validate(); err != nil {
		return nil, err
	}
	inputBytes := q.InputBytes
	if inputBytes <= 0 {
		inputBytes = q.Profile.InputBytes
	}
	if inputBytes <= 0 {
		return nil, fmt.Errorf("whatif: profile %s has no input size and none was given", q.Profile.JobID)
	}

	in := engine.InputFromProfile(q.Profile, q.Cluster)

	splitBytes := float64(data.SplitBytes)
	if float64(inputBytes) < splitBytes {
		splitBytes = float64(inputBytes)
	}
	numMaps := int((inputBytes + data.SplitBytes - 1) / data.SplitBytes)
	if numMaps < 1 {
		numMaps = 1
	}

	mt := engine.ModelMapTask(in, q.Config, splitBytes)
	totalOutRecs := mt.OutRecords * float64(numMaps)
	totalOutLogical := mt.OutBytesLogical * float64(numMaps)
	totalOutDisk := mt.OutBytesOnDisk * float64(numMaps)
	rawRecsPerTask := splitBytes / maxf(in.AvgInRecWidth, 1) * in.MapPairsSel
	totalRaw := rawRecsPerTask * float64(numMaps)
	rt := engine.ModelReduceTask(in, q.Config, totalOutRecs, totalOutLogical, totalOutDisk, totalRaw, numMaps)

	return &Prediction{
		RuntimeMs:   engine.ExpectedMakespan(mt, rt, numMaps, q.Config, q.Cluster),
		NumMapTasks: numMaps,
		MapModel:    mt,
		ReduceModel: rt,
	}, nil
}

// PredictRuntime is a convenience wrapper returning only the runtime.
func PredictRuntime(p *profile.Profile, inputBytes int64, cl *cluster.Cluster, cfg conf.Config) (float64, error) {
	pr, err := Predict(Question{Profile: p, InputBytes: inputBytes, Cluster: cl, Config: cfg})
	if err != nil {
		return 0, err
	}
	return pr.RuntimeMs, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
