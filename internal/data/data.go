// Package data provides the synthetic datasets used by the PStorM
// benchmark (Table 6.1 of the paper). The original evaluation ran on
// real corpora (35 GB of Wikipedia documents, TPC-H data, MovieLens
// ratings, the FIMI webdocs set, genome reads). Those are unavailable
// offline, so every dataset here is a deterministic generator with a
// declared nominal size: statistics are measured on a sample of real
// generated records and the execution engine extrapolates byte and
// record counts to the nominal size. Selectivities and per-record costs
// are ratios, so they are preserved exactly under this scaling.
package data

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
)

// Record is one input key/value pair as handed to a map function. For
// text-like inputs Key is the byte offset (as with Hadoop's
// TextInputFormat) and Value is the line.
type Record struct {
	Key   string
	Value string
}

// Kind identifies the generator family of a dataset.
type Kind int

// Dataset generator families. Each corresponds to one of the corpora in
// Table 6.1.
const (
	KindRandomText Kind = iota // uniform-ish random words, small vocabulary
	KindWikipedia              // Zipf-distributed words, large vocabulary, longer lines
	KindTPCH                   // TPC-H-like lineitem/orders rows (pipe-separated)
	KindTeraGen                // 100-byte sortable records (10-byte key + filler)
	KindRatings                // MovieLens-like "user::movie::rating::ts" rows
	KindWebDocs                // market-basket transactions (space-separated item ids)
	KindGenome                 // fixed-length ACGT reads
	KindPigMix                 // wide tab-separated rows with nested bags flattened
	KindDerived                // materialized output of another job (workflow chaining)
)

func (k Kind) String() string {
	switch k {
	case KindRandomText:
		return "random-text"
	case KindWikipedia:
		return "wikipedia"
	case KindTPCH:
		return "tpch"
	case KindTeraGen:
		return "teragen"
	case KindRatings:
		return "ratings"
	case KindWebDocs:
		return "webdocs"
	case KindGenome:
		return "genome"
	case KindPigMix:
		return "pigmix"
	case KindDerived:
		return "derived"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// SplitBytes is the HDFS split (block) size, 64 MB as in the paper's
// cluster (the 35 GB Wikipedia set occupies 571 splits, Fig 4.1).
const SplitBytes = 64 << 20

// GB is a convenience constant for declaring nominal sizes.
const GB = 1 << 30

// Dataset describes one input corpus: a generator plus its nominal size.
// Datasets are immutable after construction and safe for concurrent use;
// generation draws from a rand.Rand seeded per (dataset, split).
type Dataset struct {
	Name         string
	Kind         Kind
	NominalBytes int64
	Seed         int64

	// vocab is the vocabulary size for text kinds.
	vocab int
	// zipfS is the Zipf skew for text kinds (>1).
	zipfS float64
	// pool backs KindDerived datasets: records sampled from the job
	// whose output this dataset represents.
	pool []Record
}

// New constructs a dataset of the given kind and nominal size. The seed
// makes record generation fully deterministic.
func New(name string, kind Kind, nominalBytes int64, seed int64) *Dataset {
	d := &Dataset{Name: name, Kind: kind, NominalBytes: nominalBytes, Seed: seed}
	switch kind {
	case KindRandomText:
		d.vocab, d.zipfS = 8000, 1.3
	case KindWikipedia:
		d.vocab, d.zipfS = 60000, 1.15
	case KindWebDocs:
		d.vocab, d.zipfS = 5000, 1.4
	default:
		d.vocab, d.zipfS = 1000, 1.2
	}
	return d
}

// Splits returns the number of HDFS input splits (= map tasks) the
// dataset occupies at its nominal size.
func (d *Dataset) Splits() int {
	n := int((d.NominalBytes + SplitBytes - 1) / SplitBytes)
	if n < 1 {
		n = 1
	}
	return n
}

// FromRecords builds a KindDerived dataset whose records are drawn from
// a fixed pool — the materialized sample of another job's output — with
// a declared nominal size. Workflow chaining (§7.2.5) feeds one stage's
// output to the next this way.
func FromRecords(name string, pool []Record, nominalBytes int64, seed int64) *Dataset {
	d := New(name, KindDerived, nominalBytes, seed)
	d.pool = append([]Record(nil), pool...)
	return d
}

// rngs holds generators for SampleRecords to re-seed, since a fresh
// math/rand source is about 5 KB of state. Seed resets every bit of it.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// SampleRecords deterministically generates n input records drawn from
// the given split. The same (dataset, split, n) always yields the same
// records. Offsets in the keys are split-relative.
func (d *Dataset) SampleRecords(split, n int) []Record {
	r := rngs.Get().(*rand.Rand)
	defer rngs.Put(r)
	r.Seed(d.Seed*1000003 + int64(split)*7919 + 17)
	z := d.zipf(r)
	recs := make([]Record, 0, n)
	offset := int64(0)
	for i := 0; i < n; i++ {
		var v string
		if d.Kind == KindDerived {
			if len(d.pool) == 0 {
				break
			}
			v = d.pool[r.Intn(len(d.pool))].Value
		} else {
			v = d.genLine(r, z)
		}
		recs = append(recs, Record{Key: strconv.FormatInt(offset, 10), Value: v})
		offset += int64(len(v)) + 1
	}
	return recs
}

// AvgRecordBytes estimates the average serialized record size (value
// bytes plus newline) from a deterministic sample.
func (d *Dataset) AvgRecordBytes() float64 {
	recs := d.SampleRecords(0, 200)
	total := 0
	for _, rec := range recs {
		total += len(rec.Value) + 1
	}
	return float64(total) / float64(len(recs))
}

// NominalRecords estimates the total record count at nominal size.
func (d *Dataset) NominalRecords() int64 {
	avg := d.AvgRecordBytes()
	if avg <= 0 {
		return 0
	}
	return int64(float64(d.NominalBytes) / avg)
}

// zipf returns the rank distribution of the kind's skewed field (words,
// users, items), or nil for a kind without one. NewZipf draws nothing
// from r, so one per sample yields the same records as one per line.
func (d *Dataset) zipf(r *rand.Rand) *rand.Zipf {
	switch d.Kind {
	case KindRandomText, KindWikipedia, KindWebDocs:
		return rand.NewZipf(r, d.zipfS, 1, uint64(d.vocab-1))
	case KindRatings:
		return rand.NewZipf(r, 1.4, 1, 71_999)
	case KindPigMix:
		return rand.NewZipf(r, 1.2, 1, 9999)
	}
	return nil
}

// genLine produces one input line according to the dataset kind; z is
// d.zipf(r).
func (d *Dataset) genLine(r *rand.Rand, z *rand.Zipf) string {
	switch d.Kind {
	case KindRandomText, KindWikipedia:
		return d.genText(r, z)
	case KindTPCH:
		return genTPCH(r)
	case KindTeraGen:
		return genTera(r)
	case KindRatings:
		return genRating(r, z)
	case KindWebDocs:
		return d.genTransaction(r, z)
	case KindGenome:
		return genRead(r)
	case KindPigMix:
		return genPigMix(r, z)
	default:
		return ""
	}
}

var letters = []byte("abcdefghijklmnopqrstuvwxyz")

// word returns the Zipf-rank'th vocabulary word; rank 0 is most frequent.
// Words are deterministic functions of their rank so vocabularies never
// need materializing.
func word(rank int) string {
	// Base-26 encoding with a minimum length of 2 gives short frequent
	// words and longer rare words, loosely mimicking natural text.
	b := make([]byte, 0, 8)
	n := rank + 26 // skip single letters for readability
	for n > 0 {
		b = append(b, letters[n%26])
		n /= 26
	}
	return string(b)
}

func (d *Dataset) genText(r *rand.Rand, z *rand.Zipf) string {
	words := 6 + r.Intn(10)
	if d.Kind == KindWikipedia {
		// Wikipedia records are paragraph-sized, not line-sized.
		words = 60 + r.Intn(120)
	}
	line := make([]byte, 0, words*6)
	for i := 0; i < words; i++ {
		if i > 0 {
			line = append(line, ' ')
		}
		line = append(line, word(int(z.Uint64()))...)
	}
	return string(line)
}

func genTPCH(r *rand.Rand) string {
	// lineitem-like: orderkey|partkey|suppkey|quantity|extendedprice|date
	return fmt.Sprintf("%d|%d|%d|%d|%.2f|1996-%02d-%02d",
		1+r.Intn(1_500_000), 1+r.Intn(200_000), 1+r.Intn(10_000),
		1+r.Intn(50), 900+r.Float64()*100_000, 1+r.Intn(12), 1+r.Intn(28))
}

func genTera(r *rand.Rand) string {
	key := make([]byte, 10)
	for i := range key {
		key[i] = byte(' ' + r.Intn(95))
	}
	filler := make([]byte, 88)
	for i := range filler {
		filler[i] = byte('A' + r.Intn(26))
	}
	return string(key) + "\t" + string(filler)
}

func genRating(r *rand.Rand, z *rand.Zipf) string {
	// User activity is power-law distributed (as in MovieLens), so a
	// modest record sample still contains users with several ratings —
	// which is what gives the collaborative-filtering reducer real
	// per-user groups to pair up.
	return fmt.Sprintf("%d::%d::%d::%d",
		1+z.Uint64(), 1+r.Intn(10_000), 1+r.Intn(5), 789_000_000+r.Intn(200_000_000))
}

func (d *Dataset) genTransaction(r *rand.Rand, z *rand.Zipf) string {
	items := 3 + r.Intn(15)
	seen := make(map[uint64]bool, items)
	line := make([]byte, 0, items*5)
	for len(seen) < items {
		it := z.Uint64()
		if seen[it] {
			continue
		}
		seen[it] = true
		if len(line) > 0 {
			line = append(line, ' ')
		}
		line = strconv.AppendUint(line, it, 10)
	}
	return string(line)
}

var bases = []byte("ACGT")

func genRead(r *rand.Rand) string {
	read := make([]byte, 100)
	for i := range read {
		read[i] = bases[r.Intn(4)]
	}
	return fmt.Sprintf("read%d\t%s", r.Intn(1_000_000), read)
}

func genPigMix(r *rand.Rand, z *rand.Zipf) string {
	return fmt.Sprintf("user%d\t%d\t%s\t%d\tpage%d",
		z.Uint64(), r.Intn(100), word(r.Intn(2000)), r.Intn(1_000_000), r.Intn(5000))
}
