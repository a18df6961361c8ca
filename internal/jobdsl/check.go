package jobdsl

import (
	"fmt"
	"sort"
)

// Static semantic analysis. Check reports problems that would otherwise
// only surface at runtime, in the middle of a (simulated) cluster run:
// references to undefined variables, calls to unknown functions, wrong
// argument counts, and assignments to names that were never declared.
// The profile store ingests jobs from many tenants, so rejecting broken
// programs at submission time is part of being a well-behaved shared
// service.

// Problem is one finding of the checker.
type Problem struct {
	Line int
	Msg  string
}

func (p Problem) String() string { return fmt.Sprintf("line %d: %s", p.Line, p.Msg) }

// builtinArity records the exact argument count of each builtin
// (mirrors the runtime argc checks in builtins.go).
var builtinArity = map[string]int{
	"emit": 2, "len": 1, "tokenize": 1, "split": 2, "lower": 1,
	"substr": 3, "contains": 2, "toint": 1, "tostr": 1, "hash": 1,
	"append": 2, "newmap": 0, "put": 3, "get": 2, "haskey": 2,
	"keys": 1, "sortlist": 1, "min": 2, "max": 2, "param": 1,
}

// Check performs semantic analysis on the whole program and returns its
// findings sorted by line. A nil or empty result means the program is
// statically sound (it can still fail at runtime on data-dependent
// errors such as division by zero). The findings come from the
// compiler's own name resolution (compile.go), so Check applies exactly
// the scoping rules the program runs under.
func Check(prog *Program) []Problem {
	if prog == nil {
		return nil
	}
	_, problems := compile(prog)
	sort.Slice(problems, func(i, j int) bool {
		if problems[i].Line != problems[j].Line {
			return problems[i].Line < problems[j].Line
		}
		return problems[i].Msg < problems[j].Msg
	})
	return problems
}
