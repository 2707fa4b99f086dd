// Package expr provides the expression and action language used by BIP
// component behaviour: typed values (integers and booleans), environments,
// side-effect-free expressions for guards, and statements for transition
// actions and interaction data transfer.
//
// The language is deliberately small: it is the data substrate of the
// single host component language advocated by the paper, not a general
// purpose programming language.
package expr

import (
	"fmt"
	"strconv"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// Value kinds. KindInvalid is the zero value so that an uninitialized
// Value is detectably broken rather than silently an integer.
const (
	KindInvalid Kind = iota
	KindInt
	KindBool
)

// String returns a human-readable name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is an immutable runtime value: either an integer or a boolean.
// It is 16 bytes, so a variable store is a flat, pointer-free slice.
type Value struct {
	i    int64
	kind Kind
	b    bool
}

// IntVal returns an integer value.
func IntVal(i int64) Value { return Value{kind: KindInt, i: i} }

// BoolVal returns a boolean value.
func BoolVal(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// Int returns the integer payload. It reports false if the value is not an
// integer.
func (v Value) Int() (int64, bool) { return v.i, v.kind == KindInt }

// Bool returns the boolean payload. It reports false if the value is not a
// boolean.
func (v Value) Bool() (bool, bool) { return v.b, v.kind == KindBool }

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt:
		return v.i == o.i
	case KindBool:
		return v.b == o.b
	default:
		return true
	}
}

// String renders the value as source text.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return "<invalid>"
	}
}

// AppendText appends the value's source-text rendering to buf and
// returns the extended buffer. It matches String but avoids the
// intermediate allocation; state-key construction is built on it.
func (v Value) AppendText(buf []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(buf, v.i, 10)
	case KindBool:
		return strconv.AppendBool(buf, v.b)
	default:
		return append(buf, "<invalid>"...)
	}
}

// BinaryWidth is the size of a Value's fixed-width binary encoding
// (AppendBinary): one tag byte plus an 8-byte payload.
const BinaryWidth = 9

// AppendBinary appends a fixed-width canonical encoding of the value —
// exactly BinaryWidth bytes — and returns the extended buffer. Two
// values get equal encodings iff they are Equal, so concatenations of
// encodings in a fixed order form collision-free, fixed-width state
// keys; exploration's sharded seen-set stores them in flat arenas.
func (v Value) AppendBinary(buf []byte) []byte {
	var tag byte
	var p uint64
	switch v.kind {
	case KindInt:
		tag, p = 1, uint64(v.i)
	case KindBool:
		tag = 2
		if v.b {
			tag = 3
		}
	}
	return append(buf, tag,
		byte(p), byte(p>>8), byte(p>>16), byte(p>>24),
		byte(p>>32), byte(p>>40), byte(p>>48), byte(p>>56))
}

// DecodeBinary inverts AppendBinary: it decodes one fixed-width value
// record (exactly BinaryWidth bytes) and rejects every record that
// AppendBinary does not produce, so a decoded value re-encodes to the
// same bytes. Exploration's spilled frontier uses it to rebuild states
// from their on-disk binary keys.
func DecodeBinary(b []byte) (Value, error) {
	if len(b) != BinaryWidth {
		return Value{}, fmt.Errorf("expr: binary value record has %d bytes, want %d", len(b), BinaryWidth)
	}
	p := uint64(b[1]) | uint64(b[2])<<8 | uint64(b[3])<<16 | uint64(b[4])<<24 |
		uint64(b[5])<<32 | uint64(b[6])<<40 | uint64(b[7])<<48 | uint64(b[8])<<56
	switch b[0] {
	case 1:
		return IntVal(int64(p)), nil
	case 2, 3:
		if p != 0 {
			return Value{}, fmt.Errorf("expr: binary bool record has nonzero payload %#x", p)
		}
		return BoolVal(b[0] == 3), nil
	default:
		return Value{}, fmt.Errorf("expr: binary value record has unknown tag %d", b[0])
	}
}

// Env is the variable store expressions evaluate against.
type Env interface {
	// Get returns the value bound to name, reporting whether it exists.
	Get(name string) (Value, bool)
	// Set rebinds name. Implementations may reject unknown names or
	// kind-changing assignments.
	Set(name string, v Value) error
}

// MapEnv is a simple map-backed Env. Set accepts any name and allows kind
// changes. Component states use Slots instead; MapEnv serves
// environments that are not states, such as qualified offer snapshots.
type MapEnv map[string]Value

var _ Env = MapEnv(nil)

// Get implements Env.
func (m MapEnv) Get(name string) (Value, bool) {
	v, ok := m[name]
	return v, ok
}

// Set implements Env.
func (m MapEnv) Set(name string, v Value) error {
	m[name] = v
	return nil
}

// Slots is the variable store of a component state: V[i] holds the
// value of L.Names()[i]. Every state of a component shares its one
// Layout, so copying a store copies only the value slice, and code
// compiled against that layout (CompileBool, CompileStmt) runs on V
// directly. Get and Set resolve names through the layout for the
// interpreter and for callers outside the hot paths; Set rejects names
// the layout does not declare.
type Slots struct {
	L *Layout
	V []Value
}

var _ Env = Slots{}

// Get implements Env.
func (s Slots) Get(name string) (Value, bool) {
	if i, ok := s.L.Slot(name); ok {
		return s.V[i], true
	}
	return Value{}, false
}

// Set implements Env. It writes into the shared value slice, so every
// copy of s observes the update.
func (s Slots) Set(name string, v Value) error {
	i, ok := s.L.Slot(name)
	if !ok {
		return fmt.Errorf("unknown variable %q", name)
	}
	s.V[i] = v
	return nil
}

// Clone returns a copy of the store with its own value slice and the
// same layout.
func (s Slots) Clone() Slots {
	return Slots{L: s.L, V: append([]Value(nil), s.V...)}
}

// Equal reports whether two stores bind the same names to equal values.
// Stores over one layout compare slot by slot.
func (s Slots) Equal(o Slots) bool {
	if len(s.V) != len(o.V) {
		return false
	}
	if s.L == o.L {
		for i, v := range s.V {
			if !v.Equal(o.V[i]) {
				return false
			}
		}
		return true
	}
	for i, n := range s.L.Names() {
		ov, ok := o.Get(n)
		if !ok || !s.V[i].Equal(ov) {
			return false
		}
	}
	return true
}

// AppendKey appends "|name=value" for every variable in name order —
// the variable part of a component's textual state key — and returns
// the extended buffer.
func (s Slots) AppendKey(buf []byte) []byte {
	if s.L == nil {
		return buf
	}
	for _, i := range s.L.sorted {
		buf = append(buf, '|')
		buf = append(buf, s.L.names[i]...)
		buf = append(buf, '=')
		buf = s.V[i].AppendText(buf)
	}
	return buf
}

// String renders the store as "{name=value, ...}" in slot order.
func (s Slots) String() string {
	buf := []byte{'{'}
	for i, n := range s.L.Names() {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(buf, n...)
		buf = append(buf, '=')
		buf = s.V[i].AppendText(buf)
	}
	return string(append(buf, '}'))
}

// EvalError describes a runtime evaluation failure with its source
// expression or statement rendered as text.
type EvalError struct {
	Where string // source text of the failing node
	Msg   string
}

// Error implements error.
func (e *EvalError) Error() string {
	return fmt.Sprintf("eval %s: %s", e.Where, e.Msg)
}

func evalErr(where fmt.Stringer, format string, args ...any) error {
	return &EvalError{Where: where.String(), Msg: fmt.Sprintf(format, args...)}
}
