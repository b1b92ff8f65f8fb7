// Command experiments regenerates the paper's tables and figures. Each
// experiment prints the numeric rows/series the corresponding plot draws.
//
// Usage:
//
//	experiments -exp fig9b            # one experiment
//	experiments -exp all -full        # everything at paper scale
//
// Experiments: table1, fig5, fig7, fig8, fig9a, fig9b, fig9small, fig10a,
// fig10b, fig11, fig12, all.
//
// Every figure is a sweep whose points run GOMAXPROCS at a time
// (GOMAXPROCS=1 runs them one after another); the printed rows do not depend
// on the worker count. -journal FILE streams each figure sweep's task
// lifecycle to FILE as JSONL (the supersim-tasks schema), one task per sweep
// point, so ssparse -tasks and ssplot -plot taskgantt can account for where
// figure-regeneration time goes. Table I and Figure 5 run no sweep.
package main

import (
	"flag"
	"fmt"
	"os"

	"supersim/internal/experiments"
	"supersim/internal/taskrun"
)

func main() {
	exp := flag.String("exp", "all", "experiment id")
	full := flag.Bool("full", false, "paper-scale parameters (slow)")
	seed := flag.Uint64("seed", 1, "base PRNG seed")
	quiet := flag.Bool("quiet", false, "suppress progress lines")
	journalPath := flag.String("journal", "", "stream per-sweep-point task events to this JSONL file")
	flag.Parse()
	opts := experiments.Options{Full: *full, Seed: *seed, Out: os.Stderr}
	if *quiet {
		opts.Out = nil
	}
	if *journalPath != "" {
		jf, err := os.Create(*journalPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer jf.Close()
		journal := taskrun.NewJournal(jf, nil)
		opts.TaskProbe = journal
		defer func() {
			if err := journal.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: task journal: %v\n", err)
				os.Exit(1)
			}
		}()
	}
	out := os.Stdout

	run := map[string]func(){
		"table1": func() { experiments.PrintTableI(out, experiments.TableI(opts)) },
		"fig5":   func() { experiments.PrintFigure5(out, experiments.Figure5(opts)) },
		"fig7":   func() { experiments.PrintFigure7(out, experiments.Figure7(opts)) },
		"fig8": func() {
			experiments.PrintCurves(out, "Figure 8: load vs latency with phantom congestion",
				[]experiments.Curve{experiments.Figure8(opts)})
		},
		"fig9a": func() {
			experiments.PrintCurves(out, "Figure 9a: congestion sensing latency, infinite output queues",
				experiments.Figure9(opts, true))
		},
		"fig9b": func() {
			experiments.PrintCurves(out, "Figure 9b: congestion sensing latency, 64-flit output queues",
				experiments.Figure9(opts, false))
		},
		"fig9small": func() {
			experiments.PrintThroughputs(out, "VI-A text: 512-terminal variant throughput at 90% load",
				experiments.Figure9Small(opts))
		},
		"fig10a": func() {
			experiments.PrintCurves(out, "Figure 10a: credit accounting styles, uniform random",
				experiments.Figure10(opts, false))
		},
		"fig10b": func() {
			experiments.PrintCurves(out, "Figure 10b: credit accounting styles, bit complement",
				experiments.Figure10(opts, true))
		},
		"fig11": func() { experiments.PrintFigure11(out, experiments.Figure11(opts)) },
		"fig12": func() {
			experiments.PrintCurves(out, "Figure 12: flow control latency, 8 VCs, 32-flit messages",
				experiments.Figure12(opts))
		},
	}
	order := []string{"table1", "fig5", "fig7", "fig8", "fig9a", "fig9b",
		"fig9small", "fig10a", "fig10b", "fig11", "fig12"}

	if *exp == "all" {
		for _, id := range order {
			fmt.Fprintf(os.Stderr, "--- running %s ---\n", id)
			run[id]()
		}
		return
	}
	fn, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (have %v, all)\n", *exp, order)
		os.Exit(2)
	}
	fn()
}
