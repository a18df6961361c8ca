// Package jobdsl implements the small imperative language in which the
// benchmark MapReduce jobs are written. It stands in for the Java map
// and reduce functions of the original paper: the parser and AST give
// the static-analysis surface (control-flow-graph extraction, §4.1.3,
// which the paper obtained with the Soot bytecode analyzer), and the
// interpreter gives the dynamic surface (the map/combine/reduce
// functions are really executed over input records, and the
// interpreter's step counter provides the per-record CPU cost that
// feeds the profile cost factors of Table 4.2). The interpreter compiles
// each Program once into Go closures whose variables are slots of a call
// frame; frames come from a per-Interp value stack and builtin arguments
// from a per-Interp argument stack, which builtins never retain.
package jobdsl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types of DSL values.
type Kind int

// Value kinds.
const (
	KindNil Kind = iota
	KindInt
	KindBool
	KindStr
	KindList
	KindMap
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindStr:
		return "str"
	case KindList:
		return "list"
	case KindMap:
		return "map"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a dynamically typed DSL value. The zero Value is nil.
// Lists have value semantics at the binding level (append returns a new
// list); maps have reference semantics (put mutates), mirroring the
// collection behaviour the benchmark jobs rely on.
type Value struct {
	Kind Kind
	I    int64
	B    bool
	S    string
	L    []Value
	M    map[string]Value
}

// Nil is the nil value.
var Nil = Value{}

// Int wraps an int64.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Str wraps a string.
func Str(s string) Value { return Value{Kind: KindStr, S: s} }

// List wraps a slice of values.
func List(l []Value) Value { return Value{Kind: KindList, L: l} }

// NewMap returns an empty map value.
func NewMap() Value { return Value{Kind: KindMap, M: make(map[string]Value)} }

// Truthy reports the boolean interpretation of v: false, 0, "", nil,
// empty list and empty map are falsy.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindBool:
		return v.B
	case KindInt:
		return v.I != 0
	case KindStr:
		return v.S != ""
	case KindList:
		return len(v.L) > 0
	case KindMap:
		return len(v.M) > 0
	default:
		return false
	}
}

// String renders v for emission as a MapReduce key or value.
func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return ""
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	case KindStr:
		return v.S
	case KindList:
		parts := make([]string, len(v.L))
		for i, e := range v.L {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ",") + "]"
	case KindMap:
		keys := make([]string, 0, len(v.M))
		for k := range v.M {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + ":" + v.M[k].String()
		}
		return "{" + strings.Join(parts, ",") + "}"
	default:
		return "?"
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNil:
		return true
	case KindInt:
		return v.I == o.I
	case KindBool:
		return v.B == o.B
	case KindStr:
		return v.S == o.S
	case KindList:
		if len(v.L) != len(o.L) {
			return false
		}
		for i := range v.L {
			if !v.L[i].Equal(o.L[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if len(v.M) != len(o.M) {
			return false
		}
		for k, a := range v.M {
			b, ok := o.M[k]
			if !ok || !a.Equal(b) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
