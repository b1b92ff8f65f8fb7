package core

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/network"
	"supersim/internal/router"
	"supersim/internal/traffic"
	"supersim/internal/workload"
)

// registryDoc is a small settings document selecting one model per
// registry: network is the topology block's own keys, routerKeys the router
// block's, app one workload application.
func registryDoc(network, routerKeys, app string) string {
	return fmt.Sprintf(`{
	  "network": {
	    %s,
	    "router": {"num_vcs": 4, %s}
	  },
	  "workload": {"applications": [%s]}
	}`, network, routerKeys, app)
}

// The defaults the table varies one at a time: a 4x4 torus (16 terminals, a
// power of two and a square, so every traffic pattern's shape check holds),
// input-queued routers, and a blast application over uniform traffic.
const (
	regTorus = `"topology": "torus", "dimensions": [4, 4], "concentration": 1`
	regIQ    = `"architecture": "input_queued"`
)

func regBlast(traffic string) string {
	return `{"type": "blast", "injection_rate": 0.1, "warmup_duration": 100,
	  "sample_duration": 100, "traffic": ` + traffic + `}`
}

// TestRegistries pins what a configuration can select. For each of the five
// component registries:
//
//   - Names() equals the literal list here, so a deleted or misspelled
//     registration fails (a duplicate one panics at init, and one made
//     outside init is missing from Names());
//   - every name appears backquoted in CONFIG.md, so the reference cannot
//     drift from the registries;
//   - every name builds through BuildE from a document selecting it, so a
//     registered model is reachable from the packages core links.
func TestRegistries(t *testing.T) {
	configDoc, err := os.ReadFile("../../CONFIG.md")
	if err != nil {
		t.Fatal(err)
	}
	uniform := regBlast(`{"type": "uniform_random"}`)
	for _, reg := range []struct {
		kind  string
		names []string
		docs  map[string]string // every name it must hold -> a document selecting it
	}{
		{"network", network.Registry.Names(), map[string]string{
			"dragonfly": registryDoc(`"topology": "dragonfly", "concentration": 2,
			  "group_size": 2, "global_links": 1`, regIQ, uniform),
			"folded_clos": registryDoc(`"topology": "folded_clos", "half_radix": 2, "levels": 2`, regIQ, uniform),
			"hyperx":      registryDoc(`"topology": "hyperx", "widths": [4], "concentration": 1`, regIQ, uniform),
			"parking_lot": registryDoc(`"topology": "parking_lot", "routers": 3`, regIQ, uniform),
			"torus":       registryDoc(regTorus, regIQ, uniform),
		}},
		{"router", router.Registry.Names(), map[string]string{
			"input_output_queued": registryDoc(regTorus, `"architecture": "input_output_queued"`, uniform),
			"input_queued":        registryDoc(regTorus, regIQ, uniform),
			"output_queued":       registryDoc(regTorus, `"architecture": "output_queued"`, uniform),
		}},
		{"congestion sensor", congestion.Registry.Names(), map[string]string{
			"credit": registryDoc(regTorus, regIQ+`, "congestion_sensor": {"type": "credit"}`, uniform),
			"null":   registryDoc(regTorus, regIQ+`, "congestion_sensor": {"type": "null"}`, uniform),
		}},
		{"traffic pattern", traffic.Registry.Names(), map[string]string{
			"bit_complement": registryDoc(regTorus, regIQ, regBlast(`{"type": "bit_complement"}`)),
			"bit_reverse":    registryDoc(regTorus, regIQ, regBlast(`{"type": "bit_reverse"}`)),
			"cross_subtree":  registryDoc(regTorus, regIQ, regBlast(`{"type": "cross_subtree", "group_size": 4}`)),
			"fixed":          registryDoc(regTorus, regIQ, regBlast(`{"type": "fixed", "destination": 0}`)),
			"hotspot":        registryDoc(regTorus, regIQ, regBlast(`{"type": "hotspot", "destination": 0}`)),
			"neighbor":       registryDoc(regTorus, regIQ, regBlast(`{"type": "neighbor"}`)),
			"tornado": registryDoc(regTorus, regIQ,
				regBlast(`{"type": "tornado", "widths": [4, 4], "concentration": 1}`)),
			"transpose":      registryDoc(regTorus, regIQ, regBlast(`{"type": "transpose"}`)),
			"uniform_random": registryDoc(regTorus, regIQ, uniform),
		}},
		{"application", workload.Registry.Names(), map[string]string{
			"blast": registryDoc(regTorus, regIQ, uniform),
			"pulse": registryDoc(regTorus, regIQ, `{"type": "pulse", "injection_rate": 0.1,
			  "count": 1, "traffic": {"type": "uniform_random"}}`),
		}},
	} {
		t.Run(strings.ReplaceAll(reg.kind, " ", "_"), func(t *testing.T) {
			var want []string
			for name := range reg.docs {
				want = append(want, name)
			}
			sort.Strings(want)
			if !reflect.DeepEqual(reg.names, want) {
				t.Errorf("registered %v, want %v", reg.names, want)
			}
			for _, name := range want {
				if !strings.Contains(string(configDoc), "`"+name+"`") {
					t.Errorf("CONFIG.md never names %q in backquotes", name)
				}
				if _, err := BuildE(config.MustParse(reg.docs[name])); err != nil {
					t.Errorf("%q does not build: %v", name, err)
				}
			}
		})
	}
}
