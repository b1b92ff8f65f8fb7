package router

import (
	"fmt"
	"strings"
	"testing"

	"supersim/internal/congestion"
	"supersim/internal/sim"
	"supersim/internal/types"
)

// sensorOf returns a router's congestion sensor.
func sensorOf(r Router) *congestion.CreditSensor {
	switch v := r.(type) {
	case *IQ:
		return v.sensor
	case *OQ:
		return v.sensor
	case *IOQ:
		return v.sensor
	}
	panic("sensorOf: unknown router architecture")
}

// TestAccountingChecksWithoutSensor: a router whose routing reads no
// congestion sensor (dimension-order routing on a torus; here the lone
// router's fixed route) builds none, and its own credit and queue
// accounting still panics on each corruption the sensor's negative-count
// checks caught: an extra credit returned, on a connected port or on a port
// with no downstream capacity; a credit taken twice; and an output queue
// drained of a flit it never reserved room for; and an OQ router's
// pipeline refuses a body flit whose head never arrived. Its idle check, run after
// drain with verification off, catches a credit never returned and a flit
// left in an input buffer.
func TestAccountingChecksWithoutSensor(t *testing.T) {
	const vcs, credits = 1, 2
	for _, c := range []struct {
		name, doc string
		corrupt   func(r Router, s *sim.Simulator)
		want      string // in the panic
	}{
		{"extra credit returned", oqCheckpointDoc, func(r Router, _ *sim.Simulator) {
			r.ReceiveCredit(1, types.Credit{VC: 0})
		}, "downstream credits exceeded capacity on port 1"},
		{"extra credit returned to an IQ router", iqDoc, func(r Router, _ *sim.Simulator) {
			r.ReceiveCredit(1, types.Credit{VC: 0})
		}, "downstream credits exceeded capacity on port 1"},
		{"credit on a port with no downstream capacity", oqCheckpointDoc, func(r Router, _ *sim.Simulator) {
			r.ReceiveCredit(0, types.Credit{VC: 0})
		}, "downstream credits exceeded capacity on port 0"},
		{"credit taken twice", iqDoc, func(r Router, _ *sim.Simulator) {
			b := &r.(*IQ).base
			for i := 0; i <= credits; i++ {
				b.takeDownstreamCredit(1, 0)
			}
		}, "downstream credits went negative"},
		{"output occupancy underrun", oqCheckpointDoc, func(r Router, s *sim.Simulator) {
			o := &r.(*OQ).out
			o.outQ[o.b.client(1, 0)].push(types.NewMessage(1, 0, 5, 9, 1, 1).Packet(0).Flit(0))
			o.scheduleOutput(1)
			s.Run()
		}, "output queue occupancy went negative"},
		{"IOQ output occupancy underrun", ioqCheckpointDoc, func(r Router, s *sim.Simulator) {
			o := &r.(*IOQ).out
			o.outQ[o.b.client(1, 0)].push(types.NewMessage(1, 0, 5, 9, 1, 1).Packet(0).Flit(0))
			o.scheduleOutput(1)
			s.Run()
		}, "output queue occupancy went negative"},
		{"downstream credit never returned", iqDoc, func(r Router, _ *sim.Simulator) {
			r.(*IQ).takeDownstreamCredit(1, 0)
			r.VerifyIdle()
		}, "idle check: port 1 vc 0 holds 1 of 2 downstream credits"},
		{"body flit with no head", oqCheckpointDoc, func(r Router, s *sim.Simulator) {
			r.ReceiveFlit(0, 0, types.NewMessage(1, 0, 5, 9, 2, 2).Packet(0).Flit(1))
			s.Run()
		}, "at the front of input port 0 vc 0 with no routed head"},
		{"flit left in an input buffer", iqDoc, func(r Router, _ *sim.Simulator) {
			r.ReceiveFlit(0, 0, types.NewMessage(1, 0, 5, 9, 1, 1).Packet(0).Flit(0))
			r.VerifyIdle()
		}, "idle check: input VC 0 holds 1 flits"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, r, _, _ := wireLoneRouter(t, c.doc, vcs, credits, false)
			if sensor := sensorOf(r); sensor != nil {
				t.Fatalf("router with oblivious routing built a sensor %p", sensor)
			}
			defer func() {
				if got := fmt.Sprint(recover()); !strings.Contains(got, c.want) {
					t.Fatalf("panic %q, want one naming %q", got, c.want)
				}
			}()
			c.corrupt(r, s)
		})
	}
}
