package router

import "fmt"

// CheckPending returns an error unless r holds exactly the self-events its
// batching state says it does: one evPipeline while its pipeline is armed,
// and for each of its FIFOs (the internal datapath, the route line, the
// armed output ports) one event while the FIFO is non-empty and none while
// it is empty; unless its armed output ports are listed once each; and
// unless its arrival line holds one event per distinct arrival tick (see
// channel.Line.CheckPending). It walks the simulator's event queue, so it
// is for tests between run slices.
func CheckPending(r Router) error {
	if err := r.Arrivals().CheckPending(); err != nil {
		return err
	}
	switch a := r.(type) {
	case *IQ:
		return a.inputStage.checkPending()
	case *IOQ:
		if err := a.inputStage.checkPending(); err != nil {
			return err
		}
		return a.out.checkPending()
	case *OQ:
		if err := a.base.checkPending(); err != nil {
			return err
		}
		return a.out.checkPending()
	}
	return nil
}

// checkEvents reports an error unless the router has one pending event of
// type typ when armed and none otherwise.
func (b *base) checkEvents(what string, typ int, armed bool) error {
	want := 0
	if armed {
		want = 1
	}
	if n := b.Sim().PendingFor(b.self, typ); n != want {
		return fmt.Errorf("%s: %d pending %s events, want %d", b.Name(), n, what, want)
	}
	return nil
}

func (b *base) checkPending() error {
	if err := b.checkEvents("pipeline", evPipeline, b.pipelineScheduled); err != nil {
		return err
	}
	return b.dl.checkPending(b, "delay line")
}

func (s *inputStage) checkPending() error {
	if err := s.base.checkPending(); err != nil {
		return err
	}
	return s.routes.checkPending(&s.base, "route completion")
}

func (d *delayLine[T]) checkPending(b *base, what string) error {
	live := d.q.Len() > 0
	if d.scheduled != live {
		return fmt.Errorf("%s: %s scheduled=%v with live entries=%v", b.Name(), what, d.scheduled, live)
	}
	return b.checkEvents(what, d.ev, live)
}

func (o *outputStage) checkPending() error {
	armed := 0
	for _, busy := range o.outBusy {
		if busy {
			armed++
		}
	}
	seen := make([]bool, len(o.outBusy))
	for _, port := range o.ready {
		if seen[port] || !o.outBusy[port] {
			return fmt.Errorf("%s: ready list %v is not the armed ports, once each", o.b.Name(), o.ready)
		}
		seen[port] = true
	}
	if armed != len(o.ready) {
		return fmt.Errorf("%s: %d ports armed, %d listed ready", o.b.Name(), armed, len(o.ready))
	}
	return o.b.checkEvents("output drain", evOutput, len(o.ready) > 0)
}
