// Package factory implements the simulator's smart object factories.
//
// Each selectable component type (Network, Router, congestion sensor,
// Application, traffic Pattern) is abstractly defined by an interface in its
// own package and owns a Registry mapping implementation names to
// constructor functions. New component models self-register from an init
// function in their own source file:
//
//	func init() { network.Registry.Register("torus", newTorus) }
//
// which mirrors the original simulator's registerWithObjectFactory macro:
// adding a model requires dropping in a new source file with zero changes to
// the existing code base. When the simulator builds components it calls the
// registry with the name specified in the JSON settings. A model is
// selectable only if its package is linked into internal/core, whose
// registry test pins every registry's names against CONFIG.md.
package factory

import (
	"fmt"
	"sort"
	"sync"
)

// Registry maps implementation names to constructors of type C (a func type
// chosen by each component package).
type Registry[C any] struct {
	kind string
	mu   sync.RWMutex
	ctor map[string]C
}

// NewRegistry creates a registry for a component kind; the kind name appears
// in error messages ("no router named ...").
func NewRegistry[C any](kind string) *Registry[C] {
	return &Registry[C]{kind: kind, ctor: map[string]C{}}
}

// Register adds a constructor under the given name. Registering a duplicate
// name panics: it is always a programming error (two models claiming one
// name) and should fail loudly at process start.
func (r *Registry[C]) Register(name string, ctor C) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.ctor[name]; dup {
		panic(fmt.Sprintf("factory: duplicate %s implementation %q", r.kind, name))
	}
	r.ctor[name] = ctor
}

// Lookup returns the constructor registered under name.
func (r *Registry[C]) Lookup(name string) (C, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.ctor[name]
	if !ok {
		var zero C
		return zero, fmt.Errorf("factory: no %s implementation named %q (have %v)",
			r.kind, name, r.names())
	}
	return c, nil
}

// MustLookup is Lookup that panics on unknown names. Component builders use
// it because an unknown name is a fatal configuration error.
func (r *Registry[C]) MustLookup(name string) C {
	c, err := r.Lookup(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns the sorted registered implementation names.
func (r *Registry[C]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names()
}

func (r *Registry[C]) names() []string {
	out := make([]string, 0, len(r.ctor))
	for n := range r.ctor {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Kind returns the component kind this registry serves.
func (r *Registry[C]) Kind() string { return r.kind }
