package jobdsl

import (
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// builtinFunc implements one built-in. Implementations panic with
// *RuntimeError (via in.fail) on misuse. args lives on the Interp's
// argument stack and is reused by the next call: a builtin never
// retains the slice or appends to it (copying a Value out is fine).
type builtinFunc func(in *Interp, args []Value, line int) Value

// builtins is the DSL standard library. These mirror the helper
// utilities the paper's Java benchmark jobs rely on (tokenizers, string
// helpers, counters), kept deliberately small.
var builtins map[string]builtinFunc

func init() {
	builtins = map[string]builtinFunc{
		"emit":     biEmit,
		"len":      biLen,
		"tokenize": biTokenize,
		"split":    biSplit,
		"lower":    biLower,
		"substr":   biSubstr,
		"contains": biContains,
		"toint":    biToInt,
		"tostr":    biToStr,
		"hash":     biHash,
		"append":   biAppend,
		"newmap":   biNewMap,
		"put":      biPut,
		"get":      biGet,
		"haskey":   biHasKey,
		"keys":     biKeys,
		"sortlist": biSortList,
		"min":      biMin,
		"max":      biMax,
		"param":    biParam,
	}
}

func (in *Interp) argc(args []Value, want int, name string, line int) {
	if len(args) != want {
		in.fail(line, "%s expects %d args, got %d", name, want, len(args))
	}
}

func biEmit(in *Interp, args []Value, line int) Value {
	in.argc(args, 2, "emit", line)
	if in.emitter == nil {
		in.fail(line, "emit called outside a map/combine/reduce context")
	}
	in.emitter.Emit(args[0].String(), args[1].String())
	return Nil
}

func biLen(in *Interp, args []Value, line int) Value {
	in.argc(args, 1, "len", line)
	switch args[0].kind {
	case KindStr, KindList:
		return Int(args[0].n)
	case KindMap:
		return Int(int64(len(args[0].Map())))
	default:
		in.fail(line, "len of %s", args[0].kind)
		return Nil
	}
}

func biTokenize(in *Interp, args []Value, line int) Value {
	in.argc(args, 1, "tokenize", line)
	if args[0].kind != KindStr {
		in.fail(line, "tokenize expects a string")
	}
	return strList(strings.Fields(args[0].str()))
}

// strList wraps each of ss as a string value.
func strList(ss []string) Value {
	out := make([]Value, len(ss))
	for i, s := range ss {
		out[i] = Str(s)
	}
	return List(out)
}

func biSplit(in *Interp, args []Value, line int) Value {
	in.argc(args, 2, "split", line)
	if args[0].kind != KindStr || args[1].kind != KindStr {
		in.fail(line, "split expects (string, string)")
	}
	s, sep := args[0].str(), args[1].str()
	if sep == "" {
		return strList(strings.Split(s, sep))
	}
	// strings.Split's parts, without its []string.
	out := make([]Value, 0, strings.Count(s, sep)+1)
	for i := strings.Index(s, sep); i >= 0; i = strings.Index(s, sep) {
		out = append(out, Str(s[:i]))
		s = s[i+len(sep):]
	}
	return List(append(out, Str(s)))
}

func biLower(in *Interp, args []Value, line int) Value {
	in.argc(args, 1, "lower", line)
	if args[0].kind != KindStr {
		in.fail(line, "lower expects a string")
	}
	return Str(strings.ToLower(args[0].str()))
}

func biSubstr(in *Interp, args []Value, line int) Value {
	in.argc(args, 3, "substr", line)
	s := args[0]
	if s.kind != KindStr || args[1].kind != KindInt || args[2].kind != KindInt {
		in.fail(line, "substr expects (string, int, int)")
	}
	j := min(max(args[2].n, 0), s.n)
	i := min(max(args[1].n, 0), j)
	return Str(s.str()[i:j])
}

func biContains(in *Interp, args []Value, line int) Value {
	in.argc(args, 2, "contains", line)
	if args[0].kind != KindStr || args[1].kind != KindStr {
		in.fail(line, "contains expects (string, string)")
	}
	return Bool(strings.Contains(args[0].str(), args[1].str()))
}

func biToInt(in *Interp, args []Value, line int) Value {
	in.argc(args, 1, "toint", line)
	switch args[0].kind {
	case KindInt, KindBool:
		return Int(args[0].n)
	case KindStr:
		n, err := strconv.ParseInt(strings.TrimSpace(args[0].str()), 10, 64)
		if err != nil {
			in.fail(line, "toint: %q is not an integer", args[0].str())
		}
		return Int(n)
	default:
		in.fail(line, "toint of %s", args[0].kind)
		return Nil
	}
}

func biToStr(in *Interp, args []Value, line int) Value {
	in.argc(args, 1, "tostr", line)
	return Str(args[0].String())
}

func biHash(in *Interp, args []Value, line int) Value {
	in.argc(args, 1, "hash", line)
	h := fnv.New32a()
	h.Write([]byte(args[0].String()))
	return Int(int64(h.Sum32()))
}

func biAppend(in *Interp, args []Value, line int) Value {
	in.argc(args, 2, "append", line)
	if args[0].kind != KindList {
		in.fail(line, "append expects a list first argument")
	}
	l := args[0].List()
	out := make([]Value, len(l), len(l)+1)
	copy(out, l)
	return List(append(out, args[1]))
}

func biNewMap(in *Interp, args []Value, line int) Value {
	in.argc(args, 0, "newmap", line)
	return NewMap()
}

func biPut(in *Interp, args []Value, line int) Value {
	in.argc(args, 3, "put", line)
	if args[0].kind != KindMap {
		in.fail(line, "put expects a map first argument")
	}
	args[0].Map()[args[1].String()] = args[2]
	return args[0]
}

func biGet(in *Interp, args []Value, line int) Value {
	in.argc(args, 2, "get", line)
	if args[0].kind != KindMap {
		in.fail(line, "get expects a map first argument")
	}
	return args[0].Map()[args[1].String()]
}

func biHasKey(in *Interp, args []Value, line int) Value {
	in.argc(args, 2, "haskey", line)
	if args[0].kind != KindMap {
		in.fail(line, "haskey expects a map first argument")
	}
	_, ok := args[0].Map()[args[1].String()]
	return Bool(ok)
}

func biKeys(in *Interp, args []Value, line int) Value {
	in.argc(args, 1, "keys", line)
	if args[0].kind != KindMap {
		in.fail(line, "keys expects a map")
	}
	return strList(sortedKeys(args[0].Map()))
}

func biSortList(in *Interp, args []Value, line int) Value {
	in.argc(args, 1, "sortlist", line)
	if args[0].kind != KindList {
		in.fail(line, "sortlist expects a list")
	}
	out := slices.Clone(args[0].List())
	allInt := true
	for _, v := range out {
		if v.kind != KindInt {
			allInt = false
			break
		}
	}
	if allInt {
		sort.Slice(out, func(i, j int) bool { return out[i].n < out[j].n })
	} else {
		sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	}
	return List(out)
}

func biParam(in *Interp, args []Value, line int) Value {
	in.argc(args, 1, "param", line)
	if args[0].kind != KindStr {
		in.fail(line, "param expects a string name")
	}
	v, ok := in.Params[args[0].str()]
	if !ok {
		in.fail(line, "undefined job parameter %q", args[0].str())
	}
	return Str(v)
}

func biMin(in *Interp, args []Value, line int) Value {
	in.argc(args, 2, "min", line)
	a, b := in.wantInt(args[0], line), in.wantInt(args[1], line)
	if a < b {
		return Int(a)
	}
	return Int(b)
}

func biMax(in *Interp, args []Value, line int) Value {
	in.argc(args, 2, "max", line)
	a, b := in.wantInt(args[0], line), in.wantInt(args[1], line)
	if a > b {
		return Int(a)
	}
	return Int(b)
}
