package jobdsl

// IsBuiltin reports whether name is a DSL built-in function.
func IsBuiltin(name string) bool {
	_, ok := builtins[name]
	return ok
}

// MustParse is Parse that panics on error, for the fixed sources of
// tests.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}
