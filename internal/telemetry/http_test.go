package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"supersim/internal/sim"
)

// TestHandler exercises the live-introspection routes against an attached
// Telemetry: /metrics serves the Prometheus exposition, / and /progress serve
// the JSON progress document, and unknown paths 404.
func TestHandler(t *testing.T) {
	s := sim.NewSimulator(1)
	tel := Attach(s, Options{})
	tel.Registry().Counter("flits_routed", "router_0", -1, 0).Add(9)
	tel.SetPhase("blasting")
	tel.updateProgress(123)

	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ctype)
	}
	if !strings.Contains(body, `supersim_flits_routed{component="router_0"} 9`) {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	for _, path := range []string{"/", "/progress"} {
		code, body, ctype := get(path)
		if code != http.StatusOK {
			t.Fatalf("%s status = %d", path, code)
		}
		if ctype != "application/json" {
			t.Fatalf("%s content-type = %q", path, ctype)
		}
		var p Progress
		if err := json.Unmarshal([]byte(body), &p); err != nil {
			t.Fatalf("%s body is not a progress document: %v", path, err)
		}
		if p.Tick != 123 || p.Phase != "blasting" || p.Metrics != 1 {
			t.Fatalf("%s progress = %+v", path, p)
		}
	}

	if code, _, _ := get("/no-such-route"); code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", code)
	}
	// pprof index must at least respond; its body is runtime-dependent.
	if code, _, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
}

// TestAttachTwicePanics pins the one-attachment-per-simulator contract.
func TestAttachTwicePanics(t *testing.T) {
	s := sim.NewSimulator(1)
	Attach(s, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("second Attach did not panic")
		}
	}()
	Attach(s, Options{})
}

// TestForDisabled checks every probe constructor returns nil on a simulator
// without telemetry — the zero-cost disabled path components rely on.
func TestForDisabled(t *testing.T) {
	s := sim.NewSimulator(1)
	if For(s) != nil {
		t.Fatal("For returned non-nil on a bare simulator")
	}
	if ForChannel(s, "c", 1) != nil || ForRouter(s, "r", 2) != nil ||
		ForIface(s, "i") != nil || ForWorkload(s, 1, 4, 1) != nil {
		t.Fatal("a probe constructor returned non-nil with telemetry disabled")
	}
}
