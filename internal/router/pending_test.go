package router

import (
	"strings"
	"testing"

	"supersim/internal/sim"
)

// The batching state of each architecture, for breaking it on purpose.
func baseOf(r Router) *base {
	switch a := r.(type) {
	case *IQ:
		return &a.base
	case *IOQ:
		return &a.base
	case *OQ:
		return &a.base
	}
	return nil
}

func outputOf(r Router) *outputStage {
	switch a := r.(type) {
	case *IOQ:
		return &a.out
	case *OQ:
		return &a.out
	}
	return nil
}

func routesOf(r Router) *delayLine[int] {
	switch a := r.(type) {
	case *IQ:
		return &a.routes
	case *IOQ:
		return &a.routes
	}
	return nil
}

// TestCheckPending steps a lone router of every architecture through a few
// packets tick by tick, holding it to CheckPending at every pause, then
// breaks each kind of batching state on an idle router and requires
// CheckPending to name it.
func TestCheckPending(t *testing.T) {
	forEachArch(t, func(t *testing.T, doc string) {
		s, r, out, _ := buildLoneRouter(t, doc, 2, 8)
		for i := 0; i < 4; i++ {
			pushPacket(s, r, 3, i%2, sim.Tick(10+2*i))
		}
		for tick := sim.Tick(1); tick <= 60; tick++ {
			s.RunUntil(tick)
			if err := CheckPending(r); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
		}
		if len(out.flits) != 12 {
			t.Fatalf("forwarded %d flits", len(out.flits))
		}

		breaks := []struct {
			name, want string
			apply      func(r Router) bool // false: the architecture lacks the state
		}{
			{"pipeline flag without its event", "pipeline", func(r Router) bool {
				baseOf(r).pipelineScheduled = true
				return true
			}},
			{"delay line armed while empty", "delay line", func(r Router) bool {
				baseOf(r).dl.scheduled = true
				return true
			}},
			{"route line armed while empty", "route completion", func(r Router) bool {
				l := routesOf(r)
				if l != nil {
					l.scheduled = true
				}
				return l != nil
			}},
			{"port armed but not listed", "armed", func(r Router) bool {
				o := outputOf(r)
				if o != nil {
					o.outBusy[1] = true
				}
				return o != nil
			}},
			{"port listed twice", "once each", func(r Router) bool {
				o := outputOf(r)
				if o != nil {
					o.outBusy[1], o.ready = true, []int{1, 1}
				}
				return o != nil
			}},
			{"port listed without its event", "output drain", func(r Router) bool {
				o := outputOf(r)
				if o != nil {
					o.outBusy[1], o.ready = true, []int{1}
				}
				return o != nil
			}},
		}
		for _, br := range breaks {
			_, fresh, _, _ := buildLoneRouter(t, doc, 2, 8)
			if !br.apply(fresh) {
				continue
			}
			if err := CheckPending(fresh); err == nil || !strings.Contains(err.Error(), br.want) {
				t.Errorf("%s: err = %v, want %q", br.name, err, br.want)
			}
		}
	})
}
