package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supersim/internal/manifest"
	"supersim/internal/taskrun"
)

func TestParseVar(t *testing.T) {
	v, err := parseVar("Lat=CL=network.channel.latency=uint=1,2,4")
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "Lat" || v.Short != "CL" || len(v.Values) != 3 {
		t.Fatalf("variable %+v", v)
	}
	if v.Values[2] != uint64(4) {
		t.Fatalf("value %T %v", v.Values[2], v.Values[2])
	}
}

func TestParseVarTypes(t *testing.T) {
	cases := map[string]any{
		"N=S=p=int=-3":     int64(-3),
		"N=S=p=float=0.5":  0.5,
		"N=S=p=string=abc": "abc",
	}
	for decl, want := range cases {
		v, err := parseVar(decl)
		if err != nil {
			t.Fatalf("%s: %v", decl, err)
		}
		if v.Values[0] != want {
			t.Fatalf("%s: got %v (%T)", decl, v.Values[0], v.Values[0])
		}
	}
}

func TestParseVarErrors(t *testing.T) {
	for _, bad := range []string{
		"noequals",
		"N=S=p=uint=notanumber",
		"N=S=p=int=x",
		"N=S=p=float=x",
		"N=S=p=mystery=1",
		"N=S=p=uint", // missing values
	} {
		if _, err := parseVar(bad); err == nil {
			t.Errorf("parseVar(%q) should fail", bad)
		}
	}
}

func setOf(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     map[string]bool
		wantErr string // empty = valid
	}{
		{"no flags", setOf(), ""},
		{"html with x", setOf("html", "x"), ""},
		{"x alone", setOf("x"), "-x"},
		{"journal alone", setOf("journal"), ""},
		{"manifest-dir alone", setOf("manifest-dir"), ""},
		{"serve alone", setOf("serve"), ""},
		{"everything", setOf("html", "x", "journal", "manifest-dir", "serve", "cpus", "var"), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.set)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want mention of %s", err, c.wantErr)
			}
		})
	}
}

// TestRunWithFleetObservability drives the full sssweep run() path with a
// journal and a manifest directory: the journal must parse and cover every
// permutation, and each permutation must get a loadable manifest.
func TestRunWithFleetObservability(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	doc := `{
	  "simulation": {"seed": 7},
	  "network": {
	    "topology": "torus",
	    "dimensions": [2, 2],
	    "concentration": 1,
	    "channel": {"latency": 2, "period": 1},
	    "injection": {"latency": 1},
	    "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 8}
	  },
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": 0.1,
	      "message_size": 2,
	      "max_packet_size": 2,
	      "warmup_duration": 100,
	      "sample_duration": 300,
	      "traffic": {"type": "uniform_random"}
	    }]
	  }
	}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	journalPath := filepath.Join(dir, "tasks.jsonl")
	manifestDir := filepath.Join(dir, "manifests")
	vars := []string{"Lat=CL=network.channel.latency=uint=2,4"}
	err := run(cfgPath, vars, runOpts{
		cpus: 1, journalPath: journalPath, manifestDir: manifestDir,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, events, err := taskrun.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	finished, tasks := 0, 0
	for _, ev := range events {
		switch ev.Ev {
		case "finished":
			finished++
		case "done":
			tasks = ev.Tasks
		}
	}
	if finished != 2 || tasks != 2 {
		t.Fatalf("finished events %d, done line's task count %d; want 2 and 2", finished, tasks)
	}

	for _, id := range []string{"CL=2", "CL=4"} {
		m, err := manifest.LoadFile(filepath.Join(manifestDir, id+".manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if m.Labels["point"] != id || m.Metrics["samples"] == 0 {
			t.Fatalf("%s manifest %+v", id, m)
		}
	}
}
