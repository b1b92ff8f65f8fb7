package network_test

import (
	"testing"

	"supersim/internal/config"
	"supersim/internal/network"
	_ "supersim/internal/network/parkinglot"
	_ "supersim/internal/network/torus"
	"supersim/internal/sim"
)

func netCfg(doc string) *config.Settings { return config.MustParse(doc) }

func TestRegistryLookup(t *testing.T) {
	s := sim.NewSimulator(1)
	net := network.New(s, netCfg(`{
	  "topology": "parking_lot",
	  "routers": 3,
	  "channel": {"latency": 2, "period": 1},
	  "injection": {"latency": 1},
	  "router": {"architecture": "input_queued", "num_vcs": 1, "input_buffer_depth": 4, "crossbar_latency": 1}
	}`))
	if net.NumRouters() != 3 || net.NumTerminals() != 3 {
		t.Fatalf("routers=%d terminals=%d", net.NumRouters(), net.NumTerminals())
	}
	// 2 inter-router links x2 directions + 3 terminals x2 directions = 10
	if len(net.Channels()) != 10 {
		t.Fatalf("channels = %d", len(net.Channels()))
	}
	if net.ChannelPeriod() != 1 {
		t.Fatalf("period = %d", net.ChannelPeriod())
	}
	for i := 0; i < 3; i++ {
		if net.Router(i).ID() != i {
			t.Fatalf("router %d id %d", i, net.Router(i).ID())
		}
		if net.Interface(i).ID() != i {
			t.Fatalf("interface %d id %d", i, net.Interface(i).ID())
		}
	}
}

func TestUnknownTopologyPanics(t *testing.T) {
	s := sim.NewSimulator(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	network.New(s, netCfg(`{"topology": "unobtainium"}`))
}

func TestBaseValidation(t *testing.T) {
	s := sim.NewSimulator(1)
	bad := []string{
		`{"channel": {"latency": 0, "period": 1}}`,
		`{"channel": {"latency": 1, "period": 0}}`,
		`{"injection": {"latency": 0}}`,
		`{"interface": {"receive_buffer_depth": 0}}`,
	}
	for _, doc := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBase should reject %s", doc)
				}
			}()
			network.NewBase(s, netCfg(doc))
		}()
	}
}

func TestBuildOrderEnforced(t *testing.T) {
	s := sim.NewSimulator(1)
	b := network.NewBase(s, netCfg(`{
	  "channel": {"latency": 1, "period": 1},
	  "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 4, "crossbar_latency": 1}
	}`))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order BuildRouter must panic")
		}
	}()
	b.BuildRouter(1, 3, nil, false) // id 1 before id 0
}

func TestDeterministicConstruction(t *testing.T) {
	// Building the same topology twice yields identical shapes.
	build := func() (int, int, int) {
		s := sim.NewSimulator(1)
		net := network.New(s, netCfg(`{
		  "topology": "torus",
		  "dimensions": [3, 3],
		  "concentration": 2,
		  "channel": {"latency": 2, "period": 1},
		  "injection": {"latency": 1},
		  "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 4, "crossbar_latency": 1}
		}`))
		return net.NumRouters(), net.NumTerminals(), len(net.Channels())
	}
	r1, t1, c1 := build()
	r2, t2, c2 := build()
	if r1 != r2 || t1 != t2 || c1 != c2 {
		t.Fatal("construction not deterministic")
	}
	if r1 != 9 || t1 != 18 {
		t.Fatalf("torus 3x3 conc 2: routers=%d terminals=%d", r1, t1)
	}
	// channels: routers 9 * dims 2 * bidir 2 + terminals 18 * 2 = 72
	if c1 != 72 {
		t.Fatalf("channels = %d", c1)
	}
}
