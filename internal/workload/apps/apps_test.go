package apps_test

import (
	"fmt"
	"math"
	"testing"

	"supersim/internal/config"
	"supersim/internal/core"
	"supersim/internal/workload/apps"
)

func baseDoc(app string) string {
	return fmt.Sprintf(`{
	  "simulation": {"seed": 31},
	  "network": {
	    "topology": "parking_lot",
	    "routers": 3,
	    "channel": {"latency": 2, "period": 1},
	    "injection": {"latency": 1},
	    "router": {"architecture": "input_queued", "num_vcs": 1, "input_buffer_depth": 8, "crossbar_latency": 1}
	  },
	  "workload": {"applications": [%s]}
	}`, app)
}

func TestBlastRateCalibration(t *testing.T) {
	// The Poisson injector must hit the configured average rate: at rate
	// 0.25 flits/cycle/terminal (period 1 tick), 3 terminals and a 8000-tick
	// window, expect ~6000 messages overall (the window spans warmup too).
	doc := baseDoc(`{
	  "type": "blast",
	  "injection_rate": 0.25,
	  "message_size": 1,
	  "warmup_duration": 1000,
	  "sample_duration": 8000,
	  "traffic": {"type": "uniform_random"}
	}`)
	sm := core.Build(config.MustParse(doc))
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	blast := sm.Workload.App(0).(*apps.Blast)
	start, stop := blast.SampleWindow()
	window := float64(stop - start)
	expected := 0.25 * 3 * window
	got := float64(blast.Stats().Count())
	if math.Abs(got-expected)/expected > 0.1 {
		t.Fatalf("sampled %v messages, expected ~%v (rate miscalibrated)", got, expected)
	}
	if blast.Generated() < uint64(got) {
		t.Fatal("generated < sampled")
	}
}

func TestBlastMultiPacketMessages(t *testing.T) {
	doc := baseDoc(`{
	  "type": "blast",
	  "injection_rate": 0.2,
	  "message_size": 7,
	  "max_packet_size": 3,
	  "warmup_duration": 500,
	  "sample_duration": 2000,
	  "traffic": {"type": "neighbor"}
	}`)
	sm := core.Build(config.MustParse(doc))
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	blast := sm.Workload.App(0).(*apps.Blast)
	for _, s := range blast.Stats().Samples() {
		if s.Flits != 7 {
			t.Fatalf("sample flits %d", s.Flits)
		}
	}
}

func TestBlastConfigValidation(t *testing.T) {
	bad := []string{
		`{"type": "blast", "injection_rate": 0, "warmup_duration": 1, "sample_duration": 1, "traffic": {"type": "neighbor"}}`,
		`{"type": "blast", "injection_rate": 1.5, "warmup_duration": 1, "sample_duration": 1, "traffic": {"type": "neighbor"}}`,
		`{"type": "blast", "injection_rate": 0.5, "message_size": 0, "warmup_duration": 1, "sample_duration": 1, "traffic": {"type": "neighbor"}}`,
		`{"type": "blast", "injection_rate": 0.5, "warmup_duration": 1, "sample_duration": 1, "traffic": {"type": "nope"}}`,
	}
	for _, app := range bad {
		if _, err := core.BuildE(config.MustParse(baseDoc(app))); err == nil {
			t.Errorf("config accepted: %s", app)
		}
	}
}

func TestPulseConfigValidation(t *testing.T) {
	bad := []string{
		`{"type": "pulse", "injection_rate": 0, "count": 1, "traffic": {"type": "neighbor"}}`,
		`{"type": "pulse", "injection_rate": 0.5, "count": 0, "traffic": {"type": "neighbor"}}`,
		`{"type": "pulse", "injection_rate": 0.5, "count": 1, "message_size": 0, "traffic": {"type": "neighbor"}}`,
	}
	for _, app := range bad {
		if _, err := core.BuildE(config.MustParse(baseDoc(app))); err == nil {
			t.Errorf("config accepted: %s", app)
		}
	}
}

func TestPulseDeliversExactCount(t *testing.T) {
	doc := baseDoc(`{
	  "type": "blast",
	  "injection_rate": 0.1,
	  "warmup_duration": 200,
	  "sample_duration": 3000,
	  "traffic": {"type": "uniform_random"}
	}, {
	  "type": "pulse",
	  "injection_rate": 0.6,
	  "count": 11,
	  "delay": 300,
	  "traffic": {"type": "uniform_random"}
	}`)
	sm := core.Build(config.MustParse(doc))
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	pulse := sm.Workload.App(1).(*apps.Pulse)
	if pulse.Stats().Count() != 11*3 {
		t.Fatalf("pulse delivered %d, want %d", pulse.Stats().Count(), 33)
	}
}

func TestBlastSourceQueueCap(t *testing.T) {
	// Parking lot at maximum rate toward one sink: far terminals saturate
	// and the source queue cap must kick in (Skipped > 0), while the run
	// still completes and drains.
	doc := baseDoc(`{
	  "type": "blast",
	  "injection_rate": 1.0,
	  "warmup_duration": 500,
	  "sample_duration": 3000,
	  "source_queue_limit": 4,
	  "traffic": {"type": "fixed", "destination": 0}
	}`)
	sm := core.Build(config.MustParse(doc))
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	blast := sm.Workload.App(0).(*apps.Blast)
	if blast.Skipped() == 0 {
		t.Fatal("saturated run should skip injections at the source queue cap")
	}
}

func TestBlastPacketStats(t *testing.T) {
	doc := baseDoc(`{
	  "type": "blast",
	  "injection_rate": 0.2,
	  "message_size": 6,
	  "max_packet_size": 2,
	  "warmup_duration": 300,
	  "sample_duration": 1500,
	  "traffic": {"type": "neighbor"}
	}`)
	sm := core.Build(config.MustParse(doc))
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	blast := sm.Workload.App(0).(*apps.Blast)
	msgs, pkts := blast.Stats(), blast.PacketStats()
	if pkts.Count() != 3*msgs.Count() {
		t.Fatalf("packets %d, want 3x messages %d", pkts.Count(), msgs.Count())
	}
	for _, s := range pkts.Samples() {
		if s.Flits != 2 {
			t.Fatalf("packet flits %d", s.Flits)
		}
	}
	// Packet latency (inject->deliver) is below message latency
	// (create->last delivery) on average.
	if pkts.Mean() >= msgs.Mean() {
		t.Fatalf("packet mean %v should be below message mean %v", pkts.Mean(), msgs.Mean())
	}
}

// TestBlastSinglePacketStats is TestBlastPacketStats' twin where no message
// can span two packets (max_packet_size at and beyond message_size): the
// packet recorder stays empty.
func TestBlastSinglePacketStats(t *testing.T) {
	for _, maxPkt := range []int{6, 8} {
		doc := baseDoc(fmt.Sprintf(`{
		  "type": "blast",
		  "injection_rate": 0.2,
		  "message_size": 6,
		  "max_packet_size": %d,
		  "warmup_duration": 300,
		  "sample_duration": 1500,
		  "traffic": {"type": "neighbor"}
		}`, maxPkt))
		sm := core.Build(config.MustParse(doc))
		if _, err := sm.Run(); err != nil {
			t.Fatal(err)
		}
		blast := sm.Workload.App(0).(*apps.Blast)
		if blast.Stats().Count() == 0 {
			t.Fatalf("max_packet_size %d: no sampled messages", maxPkt)
		}
		if n := blast.PacketStats().Count(); n != 0 {
			t.Fatalf("max_packet_size %d: %d packet rows, want none", maxPkt, n)
		}
	}
}
