package jobdsl

import (
	"fmt"
	"slices"
	"testing"
)

// fuzzRecord is the record FuzzCompileAndCall maps: fields for split on
// tabs, words for tokenize, and the "|" and "::" separators the Table
// 6.1 join and item-CF maps split on.
var fuzzRecord = []Value{Str("0"), Str("u7\t42\tword alpha beta\t9\tpage3|x::y::5")}

// FuzzCompileAndCall parses and compiles any source and, if it parses,
// calls its map twice on one Interp and once on a fresh one. No panic
// may escape Call, every call must leave the scratch stack empty, and
// the second call must emit, return and fail exactly as the fresh
// Interp does: nothing a call leaves behind, such as a scratch list of
// a split() that outlived its block, may reach the next. The corpus
// under testdata/fuzz holds every Table 6.1 job source, malformed ones,
// and recursive functions that bind split.
func FuzzCompileAndCall(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		Check(prog)
		call := func(in *Interp) string {
			var out []string
			in.ResetSteps()
			v, err := in.Call("map", slices.Clone(fuzzRecord), EmitterFunc(func(k, v string) {
				out = append(out, k+"="+v)
			}))
			if len(in.scratch) != 0 {
				t.Errorf("call left %d values on the scratch stack", len(in.scratch))
			}
			return fmt.Sprintf("emitted %q, returned %v, error %v, %d steps", out, v.String(), err, in.Steps())
		}
		newInterp := func() *Interp {
			in := NewInterp(prog)
			in.MaxSteps = 20_000
			in.Params = map[string]string{"window": "2"}
			return in
		}
		in := newInterp()
		call(in)
		if again, fresh := call(in), call(newInterp()); again != fresh {
			t.Errorf("second call on one Interp: %s\nfresh Interp: %s", again, fresh)
		}
	})
}
