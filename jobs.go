package pstorm

import (
	"pstorm/internal/data"
	"pstorm/internal/workloads"
)

// Benchmark job constructors, re-exported from the Table 6.1 workload.

// WordCount returns the word count job (Algorithm 1).
func WordCount() *Job { return workloads.WordCount() }

// CoOccurrencePairs returns the word co-occurrence pairs job
// (Algorithm 2) with the given sliding-window size.
func CoOccurrencePairs(window int) *Job { return workloads.CoOccurrencePairs(window) }

// CoOccurrenceStripes returns the stripes formulation.
func CoOccurrenceStripes(window int) *Job { return workloads.CoOccurrenceStripes(window) }

// BigramRelativeFrequency returns the bigram relative frequency job.
func BigramRelativeFrequency() *Job { return workloads.BigramRelativeFrequency() }

// InvertedIndex returns the inverted index job.
func InvertedIndex() *Job { return workloads.InvertedIndex() }

// Sort returns the TeraSort-style identity job.
func Sort() *Job { return workloads.Sort() }

// Join returns the TPC-H-style repartition join job.
func Join() *Job { return workloads.Join() }

// FrequentItemsets returns the three chained frequent-itemset jobs.
func FrequentItemsets() []*Job { return workloads.FrequentItemsets() }

// ItemCF returns the item-based collaborative filtering job.
func ItemCF() *Job { return workloads.ItemCF() }

// CloudBurst returns the genome read-mapping job.
func CloudBurst() *Job { return workloads.CloudBurst() }

// Grep returns the grep job with the given search pattern.
func Grep(pattern string) *Job { return workloads.Grep(pattern) }

// PigMix returns the PigMix-style query jobs.
func PigMix() []*Job { return workloads.PigMix() }

// JobByName looks up a benchmark job by its Table 6.1 name.
func JobByName(name string) (*Job, error) { return workloads.JobByName(name) }

// DatasetByName looks up a benchmark dataset by name (see Datasets).
func DatasetByName(name string) (*Dataset, error) { return workloads.DatasetByName(name) }

// Datasets returns all benchmark corpora keyed by name.
func Datasets() map[string]*Dataset { return workloads.Datasets() }

// GB is a convenience for nominal dataset sizes.
const GB = data.GB
