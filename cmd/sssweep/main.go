// Command sssweep generates and executes a simulation sweep over one or more
// variables and prints a CSV of the results — the command line face of the
// sweep package.
//
// Each -var flag declares one sweep variable as
//
//	-var NAME=SHORT=settings.path=type=v1,v2,v3
//
// mirroring a command line override with multiple values. For example, a
// channel latency sweep over an existing config:
//
//	sssweep -cpus 4 myconfig.json \
//	    -var ChannelLatency=CL=network.channel.latency=uint=1,2,4,8,16,32
//
// Fleet observability (see OBSERVABILITY.md): -journal <f> writes a task
// event journal (JSONL) of every permutation's lifecycle for ssparse -tasks
// and ssplot -plot taskgantt, -manifest-dir <d> writes one provenance
// manifest per permutation, and -serve <host:port> serves the live sweep
// dashboard (/sweep progress JSON, /metrics Prometheus) while the campaign
// runs. As with supersim, a modifier flag set without the flag it modifies
// (-x without -html) is rejected up front.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"supersim/internal/config"
	"supersim/internal/sweep"
	"supersim/internal/taskrun"
)

type varFlags []string

func (v *varFlags) String() string     { return strings.Join(*v, "; ") }
func (v *varFlags) Set(s string) error { *v = append(*v, s); return nil }

func main() {
	var vars varFlags
	cpus := flag.Int("cpus", 1, "concurrent simulations")
	htmlPath := flag.String("html", "", "write an HTML report (web viewer) to this file")
	xVar := flag.String("x", "", "variable for the report's plot x axis")
	journalPath := flag.String("journal", "", "write a task event journal (JSONL) of the sweep to this file")
	manifestDir := flag.String("manifest-dir", "", "write one run provenance manifest per permutation into this directory")
	serveAddr := flag.String("serve", "", "serve the live sweep dashboard HTTP on this address (/sweep, /metrics)")
	flag.Var(&vars, "var", "sweep variable: NAME=SHORT=path=type=v1,v2,...")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set); err != nil {
		fmt.Fprintln(os.Stderr, "sssweep:", err)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sssweep [-cpus N] [-var ...] [-html report.html -x VAR] [-journal f] [-manifest-dir d] [-serve addr] <config.json>")
		os.Exit(2)
	}
	err := run(flag.Arg(0), vars, runOpts{
		cpus:        *cpus,
		htmlPath:    *htmlPath,
		xVar:        *xVar,
		journalPath: *journalPath,
		manifestDir: *manifestDir,
		serveAddr:   *serveAddr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sssweep:", err)
		os.Exit(1)
	}
}

// runOpts carries the command-line options into run.
type runOpts struct {
	cpus        int
	htmlPath    string
	xVar        string
	journalPath string
	manifestDir string
	serveAddr   string
}

// validateFlags rejects modifier flags set without the flag they modify —
// the same fail-fast contract as supersim's flag validation.
func validateFlags(set map[string]bool) error {
	if set["x"] && !set["html"] {
		return fmt.Errorf("-x has no effect without -html")
	}
	return nil
}

func run(cfgPath string, vars []string, o runOpts) error {
	base, err := config.LoadFile(cfgPath)
	if err != nil {
		return err
	}
	s := sweep.New(base, o.cpus)
	var names []string
	for _, decl := range vars {
		v, err := parseVar(decl)
		if err != nil {
			return err
		}
		names = append(names, v.Name)
		s.AddVariable(v)
	}
	var probes []taskrun.Probe
	var journal *taskrun.Journal
	if o.journalPath != "" {
		f, err := os.Create(o.journalPath)
		if err != nil {
			return err
		}
		defer f.Close()
		journal = taskrun.NewJournal(f, nil)
		probes = append(probes, journal)
	}
	if o.serveAddr != "" {
		mon := sweep.NewMonitor(nil)
		mon.Serve(o.serveAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "sssweep: dashboard server:", err)
		})
		fmt.Fprintf(os.Stderr, "dashboard: serving http://%s/ (/sweep, /metrics)\n", o.serveAddr)
		probes = append(probes, mon)
	}
	s.Probe = taskrun.Probes(probes...)
	if o.manifestDir != "" {
		s.ManifestDir = o.manifestDir
	}
	fmt.Fprintf(os.Stderr, "sweeping %d permutations\n", s.Permutations())
	points, err := s.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sssweep: some permutations failed:", err)
	}
	if journal != nil {
		if jerr := journal.Err(); jerr != nil {
			return fmt.Errorf("task journal: %w", jerr)
		}
	}
	// CSV: id, variables..., then summary columns.
	header := append([]string{"id"}, names...)
	header = append(header, "samples", "accepted", "mean", "p50", "p90", "p99", "p99.9", "hops", "nonmin")
	fmt.Println(strings.Join(header, ","))
	for _, p := range points {
		if p.Err != nil {
			continue
		}
		row := []string{p.ID}
		for _, n := range names {
			row = append(row, fmt.Sprintf("%v", p.Values[n]))
		}
		su := p.Summary
		row = append(row,
			strconv.Itoa(su.Count),
			fmt.Sprintf("%.4f", p.Accepted),
			fmt.Sprintf("%.1f", su.Mean),
			fmt.Sprintf("%.0f", su.P50),
			fmt.Sprintf("%.0f", su.P90),
			fmt.Sprintf("%.0f", su.P99),
			fmt.Sprintf("%.0f", su.P999),
			fmt.Sprintf("%.2f", su.MeanHops),
			fmt.Sprintf("%.4f", su.NonMinimal),
		)
		fmt.Println(strings.Join(row, ","))
	}
	if o.htmlPath != "" {
		f, err := os.Create(o.htmlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sweep.WriteReport(f, "sssweep: "+cfgPath, points, o.xVar); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote HTML report to %s\n", o.htmlPath)
	}
	return nil
}

func parseVar(decl string) (sweep.Variable, error) {
	parts := strings.SplitN(decl, "=", 5)
	if len(parts) != 5 {
		return sweep.Variable{}, fmt.Errorf("variable %q: want NAME=SHORT=path=type=values", decl)
	}
	name, short, path, typ, valuesCSV := parts[0], parts[1], parts[2], parts[3], parts[4]
	var values []any
	for _, raw := range strings.Split(valuesCSV, ",") {
		switch typ {
		case "uint":
			u, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				return sweep.Variable{}, fmt.Errorf("variable %q: %v", decl, err)
			}
			values = append(values, u)
		case "int":
			i, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				return sweep.Variable{}, fmt.Errorf("variable %q: %v", decl, err)
			}
			values = append(values, i)
		case "float":
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return sweep.Variable{}, fmt.Errorf("variable %q: %v", decl, err)
			}
			values = append(values, f)
		case "string":
			values = append(values, raw)
		default:
			return sweep.Variable{}, fmt.Errorf("variable %q: unknown type %q", decl, typ)
		}
	}
	return sweep.Variable{
		Name:   name,
		Short:  short,
		Values: values,
		Apply:  func(cfg *config.Settings, v any) { cfg.Set(path, v) },
	}, nil
}
