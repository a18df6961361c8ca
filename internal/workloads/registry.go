package workloads

import (
	"fmt"

	"pstorm/internal/data"
	"pstorm/internal/mrjob"
)

// Datasets returns the benchmark corpora of Table 6.1, keyed by name.
// The generators are deterministic; nominal sizes match the paper
// (35 GB Wikipedia in 571 64-MB splits, 1 GB random text, TPC-H at two
// scales, TeraGen at two scales, 1M/10M ratings, the 1.5 GB webdocs
// transaction set, two genome read sets, and PigMix data at two scales).
func Datasets() map[string]*data.Dataset {
	ds := []*data.Dataset{
		data.New("randomtext-1g", data.KindRandomText, 1*data.GB, 101),
		data.New("wiki-35g", data.KindWikipedia, 35*data.GB+45*(1<<20), 102), // 571 splits of 64 MB
		data.New("tpch-1g", data.KindTPCH, 1*data.GB, 103),
		data.New("tpch-35g", data.KindTPCH, 35*data.GB, 104),
		data.New("tera-1g", data.KindTeraGen, 1*data.GB, 105),
		data.New("tera-35g", data.KindTeraGen, 35*data.GB, 106),
		data.New("ratings-1m", data.KindRatings, 24*(1<<20), 107),
		data.New("ratings-10m", data.KindRatings, 240*(1<<20), 108),
		data.New("webdocs-1.5g", data.KindWebDocs, data.GB+data.GB/2, 109),
		data.New("genome-sample", data.KindGenome, 128*(1<<20), 110),
		data.New("genome-lakewash", data.KindGenome, 1*data.GB, 111),
		data.New("pigmix-1g", data.KindPigMix, 1*data.GB, 112),
		data.New("pigmix-35g", data.KindPigMix, 35*data.GB, 113),
	}
	out := make(map[string]*data.Dataset, len(ds))
	for _, d := range ds {
		out[d.Name] = d
	}
	return out
}

// Entry pairs a job with the datasets it runs on in the benchmark.
type Entry struct {
	Spec *mrjob.Spec
	// DatasetNames lists the corpora the job is executed on (most jobs
	// run on two, giving each profile a "twin" for the DD experiments;
	// a few run on one, which the paper identifies as the cause of its
	// DD false positives).
	DatasetNames []string
	// Domain is the application domain column of Table 6.1.
	Domain string
}

// Benchmark returns the full Table 6.1 workload.
func Benchmark() []Entry {
	fim := FrequentItemsets()
	entries := []Entry{
		{CloudBurst(), []string{"genome-sample", "genome-lakewash"}, "Bioinformatics"},
		{fim[0], []string{"webdocs-1.5g"}, "Data Mining"},
		{fim[1], []string{"webdocs-1.5g"}, "Data Mining"},
		{fim[2], []string{"webdocs-1.5g"}, "Data Mining"},
		{ItemCF(), []string{"ratings-1m", "ratings-10m"}, "Recommendation Systems"},
		{Join(), []string{"tpch-1g", "tpch-35g"}, "Business Intelligence"},
		{WordCount(), []string{"randomtext-1g", "wiki-35g"}, "Text Mining"},
		{InvertedIndex(), []string{"randomtext-1g", "wiki-35g"}, "Text Mining"},
		{Sort(), []string{"tera-1g", "tera-35g"}, "Many Domains"},
		{BigramRelativeFrequency(), []string{"randomtext-1g", "wiki-35g"}, "Natural Language Processing"},
		{CoOccurrencePairs(2), []string{"randomtext-1g", "wiki-35g"}, "Natural Language Processing"},
		{CoOccurrenceStripes(2), []string{"randomtext-1g"}, "Natural Language Processing"},
	}
	for _, q := range PigMix() {
		entries = append(entries, Entry{q, []string{"pigmix-1g", "pigmix-35g"}, "Pig Benchmark"})
	}
	return entries
}

// JobByName returns the benchmark spec with the given name.
func JobByName(name string) (*mrjob.Spec, error) {
	for _, e := range Benchmark() {
		if e.Spec.Name == name {
			return e.Spec, nil
		}
	}
	if name == "grep" {
		return Grep("the"), nil
	}
	return nil, fmt.Errorf("workloads: unknown job %q", name)
}

// DatasetByName returns the benchmark dataset with the given name.
func DatasetByName(name string) (*data.Dataset, error) {
	d, ok := Datasets()[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown dataset %q", name)
	}
	return d, nil
}
