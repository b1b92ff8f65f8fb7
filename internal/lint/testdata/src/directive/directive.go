// Package lintfixture exercises the directive meta-rule: every //sslint:
// comment below is malformed in a distinct way. The expected problems are
// asserted explicitly in TestDirectiveProblems (a malformed directive cannot
// carry a trailing want marker without changing what is parsed).
package lintfixture

//sslint:allow determinism
func missingJustification() {}

//sslint:allow nosuchrule — the rule name does not exist
func unknownRule() {}

// The first "determinism" registers an (unused) allow; the second listing is
// a duplicate. Both outcomes are asserted by the test.
//
//sslint:allow determinism,determinism — duplicate listing
func duplicateRule() {}

//sslint:frobnicate
func unknownDirective() {}

//sslint:nosnapshot
func nosnapshotWithoutJustification() {}
