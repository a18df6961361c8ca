package data

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// sampleDigests pins SampleRecords(split, 200) byte for byte: one
// SHA-256 per (kind, split) over every record's key and value. A
// generator change that moves one record moves every statistic measured
// from it, and so every profile and paper table built on them.
var sampleDigests = map[string]string{
	"random-text/0":  "b437c8d41b037257cc81cc6b11259007a908d5a1c4ac0cda4d750f642e084f82",
	"random-text/13": "9a65c18b0e5bcfb88635a12165856aa5a20dac5b06b2da178abf865db5455717",
	"wikipedia/0":    "5f1be754603759edaeabb30c7708e24debcce9f413966c6d660e14aa5e785b3d",
	"wikipedia/13":   "f066237a750754ace493e581ea34c1fe15ec9782d54178e56d5641b84c9ddd07",
	"tpch/0":         "8d8f89c726fd0500e5842007bcb4c9a9558fb572c473a1d0ba528533e39573fa",
	"tpch/13":        "50750e9458ef9f243dd53f03d0f22520d767d4735db7928d12dcb32e4f0ea12d",
	"teragen/0":      "9f535ca1d51e0d11fa24cd34d5e2829ce0a05f3ea56c2eb7fb218232a4dc38ef",
	"teragen/13":     "dc9b3d29c72b9c6383137291f7806c53343dbb2c1da1b173ee29b0925c8bf488",
	"ratings/0":      "eb8d74dc2dec0ac94943eeab5f4dbe4d500020933651aeeaa12e9b0a2a5e1d68",
	"ratings/13":     "6adf17d44c568b7b07f3ca661b472eed60748912cfe1e441520fd48028fd0760",
	"webdocs/0":      "4243ac4d60fa1b26ed08fac6a4f4f701885db958c66f3e6f1162bee25e6af438",
	"webdocs/13":     "0f25d0b6381bdd372cb033910ef8b9b3947924dd729275f8b4709c5f662e1e2a",
	"genome/0":       "0d951cc01f3a7ad424e22613ede13e99d6c583589accd832fbafc92eed19e8c4",
	"genome/13":      "0989cbea60f2258fc78c9f389123533dcfe2a0dffe16681490a79d2bf5482953",
	"pigmix/0":       "155a46e60f2f7300f3001827fecce3d853fa9db1bdbb9f00533f932330fbb2f8",
	"pigmix/13":      "c1f28ac29c6f3cee1110aa271b252f9e5ade2edf7a391a2bf01c13063423cee0",
	"derived/0":      "af2d11b91cf7f39fb03a75ce0056eed013552dfed43f92ca2c983d080c8207c0",
	"derived/13":     "c3d703e8d6bfe8785486c9629019446855f9288b537dd29cf072a9261595581c",
}

// digestDataset is the dataset of kind whose samples sampleDigests pins;
// the derived kind draws from a fixed pool.
func digestDataset(kind Kind) *Dataset {
	if kind != KindDerived {
		return New("golden", kind, 10*GB, 7)
	}
	pool := make([]Record, 50)
	for i := range pool {
		pool[i] = Record{Key: fmt.Sprint(i), Value: fmt.Sprintf("k%d\t%d", i%7, i*i)}
	}
	return FromRecords("golden", pool, 10*GB, 7)
}

func TestSampleRecordsGolden(t *testing.T) {
	for kind := KindRandomText; kind <= KindDerived; kind++ {
		ds := digestDataset(kind)
		for _, split := range []int{0, 13} {
			h := sha256.New()
			for _, r := range ds.SampleRecords(split, 200) {
				fmt.Fprintf(h, "%q %q\n", r.Key, r.Value)
			}
			name := fmt.Sprintf("%v/%d", kind, split)
			got := hex.EncodeToString(h.Sum(nil))
			if want := sampleDigests[name]; got != want {
				t.Errorf("SampleRecords of %s: sha256 %s, want %s", name, got, want)
			}
		}
	}
}
