package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"supersim/internal/lint"
)

// target is one package to lint: its directory and import path.
type target struct {
	dir        string
	importPath string
}

// run is the driver body, separated from main for testing. It returns the
// process exit code: 0 clean, 1 findings, 2 driver failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listRules := fs.Bool("list-rules", false, "print the active rules with their one-line docs and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listRules {
		printRules(stdout)
		return 0
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "sslint: no packages given (try ./...)")
		return 2
	}

	targets, err := resolveTargets(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "sslint: %v\n", err)
		return 2
	}
	moduleRoot, err := findModuleRoot(targets[0].dir)
	if err != nil {
		fmt.Fprintf(stderr, "sslint: %v\n", err)
		return 2
	}

	loader := lint.NewLoader()
	var pkgs []*lint.Package
	for _, tg := range targets {
		p, err := loader.Load(tg.dir, tg.importPath)
		if errors.Is(err, lint.ErrNoGoFiles) {
			continue
		}
		if err != nil {
			fmt.Fprintf(stderr, "sslint: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, p)
	}

	diags := lint.Run(lint.AllAnalyzers(), pkgs)
	for _, d := range diags {
		d.Pos.Filename = relTo(moduleRoot, d.Pos.Filename)
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "sslint: %d finding%s\n", len(diags), plural(len(diags), "", "s"))
		return 1
	}
	return 0
}

// printRules lists every analyzer rule plus the always-on directive
// meta-rule, one line each, for `make lint-rules`.
func printRules(w io.Writer) {
	names := append(lint.Rules(), lint.RuleDirective)
	for _, name := range names {
		fmt.Fprintf(w, "%-18s %s\n", name, lint.RuleDoc(name))
	}
}

// resolveTargets turns the positional arguments into (dir, import path)
// pairs: existing directories are mapped through the module root, everything
// else goes through go list.
func resolveTargets(args []string) ([]target, error) {
	var targets []target
	var patterns []string
	seen := map[string]bool{}
	add := func(t target) {
		if !seen[t.importPath] {
			seen[t.importPath] = true
			targets = append(targets, t)
		}
	}
	for _, arg := range args {
		if st, err := os.Stat(arg); err == nil && st.IsDir() {
			t, err := dirTarget(arg)
			if err != nil {
				return nil, err
			}
			add(t)
			continue
		}
		patterns = append(patterns, arg)
	}
	if len(patterns) > 0 {
		listed, err := goList(patterns)
		if err != nil {
			return nil, err
		}
		for _, t := range listed {
			add(t)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no packages matched %v", args)
	}
	return targets, nil
}

// dirTarget derives a directory's import path from the enclosing go.mod.
func dirTarget(dir string) (target, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return target{}, err
	}
	root, err := findModuleRoot(abs)
	if err != nil {
		return target{}, err
	}
	module, err := moduleName(root)
	if err != nil {
		return target{}, err
	}
	importPath := module
	if rel := relTo(root, abs); rel != "." {
		importPath = module + "/" + filepath.ToSlash(rel)
	}
	return target{dir: abs, importPath: importPath}, nil
}

// goList expands go-list patterns (./..., supersim/internal/...) into
// targets.
func goList(patterns []string) ([]target, error) {
	args := append([]string{"list", "-f", "{{.ImportPath}}\t{{.Dir}}"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errBuf.String())
	}
	var targets []target
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line == "" {
			continue
		}
		ip, dir, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("go list: unparsable line %q", line)
		}
		targets = append(targets, target{dir: dir, importPath: ip})
	}
	return targets, nil
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", abs)
		}
		d = parent
	}
}

// moduleName reads the module path from root/go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", root)
}

// relTo renders path relative to root when possible, for output independent
// of the checkout location.
func relTo(root, path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return filepath.ToSlash(rel)
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
