package engine

import (
	"strconv"

	"pstorm/internal/data"
	"pstorm/internal/mrjob"
)

// SampleOutput executes the job's map/combine/reduce functions over
// sampled records from the given splits and returns the job's reduce
// output as records, one "key\tvalue" line each. Workflow chaining
// (§7.2.5) materializes the next stage's derived dataset from this
// sample.
func SampleOutput(spec *mrjob.Spec, ds *data.Dataset, splits []int, recsPerSplit int) ([]data.Record, error) {
	var red collectEmitter
	if _, err := execute(spec, ds, splits, recsPerSplit, &red); err != nil {
		return nil, err
	}
	out := make([]data.Record, len(red.pairs))
	offset := int64(0)
	for i, p := range red.pairs {
		line := p.k + "\t" + p.v
		out[i] = data.Record{Key: strconv.FormatInt(offset, 10), Value: line}
		offset += int64(len(line)) + 1
	}
	return out, nil
}
