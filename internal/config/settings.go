// Package config implements the simulator's JSON-based configuration system.
//
// Instead of a custom file format, configuration uses the JSON open-standard
// format. The natural hierarchy of JSON maps onto the component hierarchy:
// the top level of a network simulation holds a "network" block and a
// "workload" block; beneath "network" are blocks such as "router" and
// "interface"; "router" holds blocks such as "congestion_sensor"; and so on. When the
// simulator builds a component it passes the relevant sub-block to that
// component's constructor without peeking inside it.
//
// On top of plain JSON the package provides command line overrides
// ("network.concentration=uint=16"), file inclusion ("$include") and object
// referencing ("$ref") — mirroring the original simulator's settings layer.
package config

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Error is a configuration error. Builders treat configuration problems as
// fatal, so accessors panic with *Error; top-level entry points may recover
// it into an ordinary error.
type Error struct {
	Path string // settings path, e.g. "network.router.architecture"
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("config %q: %s", e.Path, e.Msg) }

func fail(path, format string, args ...any) {
	panic(&Error{Path: path, Msg: fmt.Sprintf(format, args...)})
}

// Settings is a hierarchical view into a JSON configuration document. A
// Settings value addresses one JSON object node; Sub returns views of nested
// blocks. Numbers are kept as json.Number internally so 64-bit integers do
// not lose precision.
type Settings struct {
	node map[string]any
	path string // absolute dotted path of this node, "" for root
}

// New creates an empty root Settings.
func New() *Settings {
	return &Settings{node: map[string]any{}}
}

// FromMap wraps an already-decoded JSON object. The map must follow
// encoding/json conventions (map[string]any, []any, json.Number or float64,
// string, bool, nil).
func FromMap(m map[string]any) *Settings {
	if m == nil {
		m = map[string]any{}
	}
	return &Settings{node: m}
}

// Parse decodes a JSON document into a root Settings. Numbers are preserved
// exactly via json.Number.
func Parse(data []byte) (*Settings, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("config: parse: %w", err)
	}
	return FromMap(m), nil
}

// MustParse is Parse for tests and literals; it panics on error.
func MustParse(data string) *Settings {
	s, err := Parse([]byte(data))
	if err != nil {
		panic(err)
	}
	return s
}

// Map returns the underlying JSON object of this node. Mutating it mutates
// the settings.
func (s *Settings) Map() map[string]any { return s.node }

// Path returns the absolute dotted path of this node ("" for the root).
func (s *Settings) Path() string { return s.path }

func (s *Settings) abs(rel string) string {
	if s.path == "" {
		return rel
	}
	if rel == "" {
		return s.path
	}
	return s.path + "." + rel
}

// lookup walks a dotted path and returns the value and whether it exists.
func (s *Settings) lookup(path string) (any, bool) {
	if path == "" {
		return s.node, true
	}
	cur := any(s.node)
	for _, part := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		cur, ok = m[part]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

// Has reports whether a value exists at the dotted path.
func (s *Settings) Has(path string) bool {
	_, ok := s.lookup(path)
	return ok
}

// Keys returns the sorted keys of this object node.
func (s *Settings) Keys() []string {
	keys := make([]string, 0, len(s.node))
	for k := range s.node {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sub returns the nested object at the dotted path. It panics if the path is
// missing or not an object.
func (s *Settings) Sub(path string) *Settings {
	v, ok := s.lookup(path)
	if !ok {
		fail(s.abs(path), "required block missing")
	}
	m, ok := v.(map[string]any)
	if !ok {
		fail(s.abs(path), "expected object, got %T", v)
	}
	return &Settings{node: m, path: s.abs(path)}
}

// SubOr returns the nested object at the path, or an empty Settings if the
// path is absent.
func (s *Settings) SubOr(path string) *Settings {
	if !s.Has(path) {
		return &Settings{node: map[string]any{}, path: s.abs(path)}
	}
	return s.Sub(path)
}

// String returns the string at the path, panicking if missing or mistyped.
func (s *Settings) String(path string) string {
	v, ok := s.lookup(path)
	if !ok {
		fail(s.abs(path), "required string missing")
	}
	str, ok := v.(string)
	if !ok {
		fail(s.abs(path), "expected string, got %T", v)
	}
	return str
}

// StringOr returns the string at the path or the default if absent.
func (s *Settings) StringOr(path, def string) string {
	if !s.Has(path) {
		return def
	}
	return s.String(path)
}

func (s *Settings) number(path string) json.Number {
	v, ok := s.lookup(path)
	if !ok {
		fail(s.abs(path), "required number missing")
	}
	switch n := v.(type) {
	case json.Number:
		return n
	case float64:
		return json.Number(strconv.FormatFloat(n, 'g', -1, 64))
	case int:
		return json.Number(strconv.Itoa(n))
	case int64:
		return json.Number(strconv.FormatInt(n, 10))
	case uint64:
		return json.Number(strconv.FormatUint(n, 10))
	default:
		fail(s.abs(path), "expected number, got %T", v)
		return ""
	}
}

// UInt returns the unsigned integer at the path.
func (s *Settings) UInt(path string) uint64 {
	n := s.number(path)
	u, err := strconv.ParseUint(n.String(), 10, 64)
	if err != nil {
		fail(s.abs(path), "expected unsigned integer, got %s", n)
	}
	return u
}

// UIntOr returns the unsigned integer at the path or the default if absent.
func (s *Settings) UIntOr(path string, def uint64) uint64 {
	if !s.Has(path) {
		return def
	}
	return s.UInt(path)
}

// Int returns the signed integer at the path.
func (s *Settings) Int(path string) int64 {
	n := s.number(path)
	i, err := strconv.ParseInt(n.String(), 10, 64)
	if err != nil {
		fail(s.abs(path), "expected integer, got %s", n)
	}
	return i
}

// IntOr returns the signed integer at the path or the default if absent.
func (s *Settings) IntOr(path string, def int64) int64 {
	if !s.Has(path) {
		return def
	}
	return s.Int(path)
}

// Float returns the floating point number at the path.
func (s *Settings) Float(path string) float64 {
	n := s.number(path)
	f, err := n.Float64()
	if err != nil {
		fail(s.abs(path), "expected float, got %s", n)
	}
	return f
}

// FloatOr returns the float at the path or the default if absent.
func (s *Settings) FloatOr(path string, def float64) float64 {
	if !s.Has(path) {
		return def
	}
	return s.Float(path)
}

// Bool returns the boolean at the path.
func (s *Settings) Bool(path string) bool {
	v, ok := s.lookup(path)
	if !ok {
		fail(s.abs(path), "required bool missing")
	}
	b, ok := v.(bool)
	if !ok {
		fail(s.abs(path), "expected bool, got %T", v)
	}
	return b
}

// BoolOr returns the bool at the path or the default if absent.
func (s *Settings) BoolOr(path string, def bool) bool {
	if !s.Has(path) {
		return def
	}
	return s.Bool(path)
}

// Array returns the raw array at the path.
func (s *Settings) Array(path string) []any {
	v, ok := s.lookup(path)
	if !ok {
		fail(s.abs(path), "required array missing")
	}
	a, ok := v.([]any)
	if !ok {
		fail(s.abs(path), "expected array, got %T", v)
	}
	return a
}

// UIntList returns the array of unsigned integers at the path.
func (s *Settings) UIntList(path string) []uint64 {
	raw := s.Array(path)
	out := make([]uint64, len(raw))
	for i, v := range raw {
		n, ok := v.(json.Number)
		if !ok {
			fail(s.abs(path), "element %d: expected number, got %T", i, v)
		}
		u, err := strconv.ParseUint(n.String(), 10, 64)
		if err != nil {
			fail(s.abs(path), "element %d: expected unsigned integer, got %s", i, n)
		}
		out[i] = u
	}
	return out
}

// FloatList returns the array of floats at the path.
func (s *Settings) FloatList(path string) []float64 {
	raw := s.Array(path)
	out := make([]float64, len(raw))
	for i, v := range raw {
		n, ok := v.(json.Number)
		if !ok {
			fail(s.abs(path), "element %d: expected number, got %T", i, v)
		}
		f, err := n.Float64()
		if err != nil {
			fail(s.abs(path), "element %d: expected float, got %s", i, n)
		}
		out[i] = f
	}
	return out
}

// StringList returns the array of strings at the path.
func (s *Settings) StringList(path string) []string {
	raw := s.Array(path)
	out := make([]string, len(raw))
	for i, v := range raw {
		str, ok := v.(string)
		if !ok {
			fail(s.abs(path), "element %d: expected string, got %T", i, v)
		}
		out[i] = str
	}
	return out
}

// Set stores a value at the dotted path, creating intermediate objects as
// needed. The value must be a JSON-compatible Go value.
func (s *Settings) Set(path string, value any) {
	if path == "" {
		fail(s.abs(path), "cannot set empty path")
	}
	parts := strings.Split(path, ".")
	m := s.node
	for _, part := range parts[:len(parts)-1] {
		next, ok := m[part]
		if !ok {
			nm := map[string]any{}
			m[part] = nm
			m = nm
			continue
		}
		nm, ok := next.(map[string]any)
		if !ok {
			fail(s.abs(path), "path element %q is not an object", part)
		}
		m = nm
	}
	m[parts[len(parts)-1]] = normalize(value)
}

// normalize converts native Go numbers to json.Number so typed getters work
// uniformly regardless of how the value entered the settings. Arrays and
// objects are normalized recursively (in place).
func normalize(v any) any {
	switch n := v.(type) {
	case int:
		return json.Number(strconv.Itoa(n))
	case int64:
		return json.Number(strconv.FormatInt(n, 10))
	case uint64:
		return json.Number(strconv.FormatUint(n, 10))
	case uint:
		return json.Number(strconv.FormatUint(uint64(n), 10))
	case float64:
		return json.Number(strconv.FormatFloat(n, 'g', -1, 64))
	case []any:
		for i, el := range n {
			n[i] = normalize(el)
		}
		return n
	case map[string]any:
		for k, el := range n {
			n[k] = normalize(el)
		}
		return n
	default:
		return v
	}
}

// Clone returns a deep copy of the settings rooted at this node.
func (s *Settings) Clone() *Settings {
	return &Settings{node: deepCopy(s.node).(map[string]any), path: s.path}
}

func deepCopy(v any) any {
	switch t := v.(type) {
	case map[string]any:
		m := make(map[string]any, len(t))
		for k, val := range t {
			m[k] = deepCopy(val)
		}
		return m
	case []any:
		a := make([]any, len(t))
		for i, val := range t {
			a[i] = deepCopy(val)
		}
		return a
	default:
		return v
	}
}

// JSON renders the settings as indented JSON.
func (s *Settings) JSON() string {
	b, err := json.MarshalIndent(s.node, "", "  ")
	if err != nil {
		fail(s.path, "marshal: %v", err)
	}
	return string(b)
}
