package sim

import "fmt"

// Component is the base abstraction for every simulation model: routers,
// interfaces, channels, terminals, workload controllers, and so on. Each
// component has a hierarchical name and links to the global Simulator.
type Component interface {
	Handler
	// Name returns the component's hierarchical name, e.g.
	// "network.router_3_1.input_2".
	Name() string
	// Sim returns the simulator this component belongs to.
	Sim() *Simulator
}

// eventOrder is a handler's deterministic scheduling identity. key is the
// handler's construction-order number (assigned by the simulator the handler
// was built against, never reassigned); seq counts that handler's Schedule
// calls. Together they form the (owner, oseq) tiebreak in the event queue —
// see event.go. key 0 means "not yet assigned"; the simulator assigns lazily
// on first schedule for handlers (HandlerFunc) created outside a component.
// ComponentBase and funcHandler carry one; they are the only handlers.
type eventOrder struct {
	key uint32
	seq uint64
}

// ComponentBase provides the common Component plumbing. Concrete models embed
// it and implement ProcessEvent.
type ComponentBase struct {
	name string
	sim  *Simulator
	ord  eventOrder
}

// NewComponentBase initializes the embedded base with a simulator and name.
// The base captures a construction-order key from the simulator; it is part
// of the deterministic event ordering, so components must be constructed in a
// deterministic order (they are: construction is driven by configuration,
// single-threaded, before Run).
func NewComponentBase(s *Simulator, name string) ComponentBase {
	if s == nil {
		panic("sim: component created with nil simulator")
	}
	return ComponentBase{name: name, sim: s, ord: eventOrder{key: s.nextOrderKey()}}
}

// Name returns the component's hierarchical name.
func (c *ComponentBase) Name() string { return c.name }

// Sim returns the simulator this component belongs to.
func (c *ComponentBase) Sim() *Simulator { return c.sim }

func (c *ComponentBase) order() *eventOrder { return &c.ord }

// Panicf raises a simulation model error with the component name attached.
// It is used by the framework's error detection (buffer overruns, negative
// credits, misrouted flits, ...) to catch bugs in new component models early.
func (c *ComponentBase) Panicf(format string, args ...any) {
	panic(fmt.Sprintf("%s @%v: %s", c.name, c.sim.Now(), fmt.Sprintf(format, args...)))
}

// Assert panics with the formatted message when cond is false.
func (c *ComponentBase) Assert(cond bool, format string, args ...any) {
	if !cond {
		c.Panicf(format, args...)
	}
}

// funcHandler adapts a function to the Handler interface.
type funcHandler struct {
	fn  func(ev *Event)
	ord eventOrder // key assigned lazily on first schedule
}

func (f *funcHandler) ProcessEvent(ev *Event) { f.fn(ev) }

func (f *funcHandler) order() *eventOrder { return &f.ord }

// HandlerFunc wraps a function as an event Handler. It is mainly useful in
// tests and small models; persistent components should embed ComponentBase.
func HandlerFunc(fn func(ev *Event)) Handler { return &funcHandler{fn: fn} }
