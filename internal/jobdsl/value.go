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
// frame; frames come from a per-Interp value stack, builtin arguments
// from an argument stack, which builtins never retain, and split() lists
// that only their block reads from a scratch stack.
package jobdsl

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the dynamic types of DSL values.
type Kind uint8

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
//
// A Value is three words, so frame slots, arguments and list elements
// copy 24 bytes. What p points to depends on kind:
//   - KindStr: the string's bytes, n of them;
//   - KindList: the first of n elements of a backing array, whose
//     capacity is taken to be n, so index-assign writes the array every
//     binding of the list shares and append always copies;
//   - KindMap: a one-word box holding the map;
//   - otherwise nothing: n is the int, or 0/1 for a bool.
//
// p keeps the string's or list's backing array alive, even when it
// points into the middle of one. Only the constructors below set p, and
// the accessors rebuild a string or slice only for the kind that set it.
type Value struct {
	p    unsafe.Pointer
	n    int64
	kind Kind
}

// Nil is the nil value.
var Nil = Value{}

// Int wraps an int64.
func Int(i int64) Value { return Value{kind: KindInt, n: i} }

// Bool wraps a bool.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Str wraps a string.
func Str(s string) Value {
	return Value{kind: KindStr, p: unsafe.Pointer(unsafe.StringData(s)), n: int64(len(s))}
}

// List wraps a slice of values. The list shares l's elements, but not
// its spare capacity.
func List(l []Value) Value {
	return Value{kind: KindList, p: unsafe.Pointer(unsafe.SliceData(l)), n: int64(len(l))}
}

// NewMap returns an empty map value.
func NewMap() Value {
	m := make(map[string]Value)
	return Value{kind: KindMap, p: unsafe.Pointer(&m)}
}

// Kind returns v's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// Int returns v's integer, or 0 if v is not an int.
func (v Value) Int() int64 { return v.scalar(KindInt) }

// Bool returns v's boolean, or false if v is not a bool.
func (v Value) Bool() bool { return v.scalar(KindBool) != 0 }

func (v Value) scalar(k Kind) int64 {
	if v.kind != k {
		return 0
	}
	return v.n
}

// str returns v's string, or "" if v is not a string.
func (v Value) str() string {
	if v.kind != KindStr {
		return ""
	}
	return unsafe.String((*byte)(v.p), v.n)
}

// List returns v's elements, or nil if v is not a list. Assigning to an
// element changes the list everywhere it is bound.
func (v Value) List() []Value {
	if v.kind != KindList {
		return nil
	}
	return unsafe.Slice((*Value)(v.p), v.n)
}

// Map returns v's map, or nil if v is not a map.
func (v Value) Map() map[string]Value {
	if v.kind != KindMap {
		return nil
	}
	return *(*map[string]Value)(v.p)
}

// Truthy reports the boolean interpretation of v: false, 0, "", nil,
// empty list and empty map are falsy.
func (v Value) Truthy() bool {
	if v.kind == KindMap {
		return len(v.Map()) > 0
	}
	return v.n != 0
}

// String renders v for emission as a MapReduce key or value.
func (v Value) String() string {
	switch v.kind {
	case KindNil:
		return ""
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindStr:
		return v.str()
	case KindList:
		l := v.List()
		parts := make([]string, len(l))
		for i, e := range l {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ",") + "]"
	case KindMap:
		m := v.Map()
		keys := sortedKeys(m)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + ":" + m[k].String()
		}
		return "{" + strings.Join(parts, ",") + "}"
	default:
		return "?"
	}
}

func sortedKeys(m map[string]Value) []string {
	keys := slices.AppendSeq(make([]string, 0, len(m)), maps.Keys(m))
	slices.Sort(keys)
	return keys
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindStr:
		return v.str() == o.str()
	case KindList:
		return slices.EqualFunc(v.List(), o.List(), Value.Equal)
	case KindMap:
		return maps.EqualFunc(v.Map(), o.Map(), Value.Equal)
	default:
		return v.n == o.n
	}
}
