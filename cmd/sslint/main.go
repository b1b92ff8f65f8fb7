// Command sslint runs the simulator-aware static analysis suite over the
// repository: determinism, snapshotcomplete and shardsafety, plus the
// directive meta-rule (see internal/lint).
//
// Usage:
//
//	sslint <packages>
//	sslint -list-rules
//
// Targets are directories (./internal/router) or go-list patterns (./...).
// Every rule runs; a finding is accepted only by an //sslint:allow directive
// with its justification at the site. Exit code 0 means clean, 1 means
// findings, 2 means the run itself failed (no packages, unloadable package).
package main

import "os"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
