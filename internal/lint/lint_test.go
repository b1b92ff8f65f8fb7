package lint

import (
	"strings"
	"testing"
)

// TestFixtures replays every fixture run against its want comments.
func TestFixtures(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range fixtureSpecs() {
		if spec.Name == "" || seen[spec.Name] {
			t.Fatalf("fixture spec name %q is empty or duplicated", spec.Name)
		}
		seen[spec.Name] = true
		t.Run(spec.Name, func(t *testing.T) {
			problems, err := checkFixture(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range problems {
				t.Error(pr)
			}
		})
	}
}

func TestDirectiveProblems(t *testing.T) {
	p, err := loadFixture("directive", "supersim/internal/lint/testdata/src/directive")
	if err != nil {
		t.Fatal(err)
	}
	wantSubstr := []string{
		"//sslint:allow requires a justification",
		`unknown rule "nosuchrule"`,
		`lists rule "determinism" twice`,
		`unknown sslint directive "//sslint:frobnicate"`,
		"//sslint:nosnapshot requires a justification",
	}
	probs := p.directives.problems
	if len(probs) != len(wantSubstr) {
		t.Fatalf("got %d directive problems, want %d: %v", len(probs), len(wantSubstr), probs)
	}
	for i, sub := range wantSubstr {
		if !strings.Contains(probs[i].Message, sub) {
			t.Errorf("problem %d = %q, want substring %q", i, probs[i].Message, sub)
		}
		if probs[i].Rule != RuleDirective {
			t.Errorf("problem %d rule = %q, want %q", i, probs[i].Rule, RuleDirective)
		}
	}
	// Run adds one finding beyond the parse problems: the allow the duplicate
	// listing registered suppresses nothing.
	diags := Run(AllAnalyzers(), []*Package{p})
	if len(diags) != len(wantSubstr)+1 {
		t.Errorf("full run reported %d diagnostics, want %d: %v", len(diags), len(wantSubstr)+1, diags)
	}
	unused := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "suppresses nothing") {
			unused++
		}
	}
	if unused != 1 {
		t.Errorf("full run reported %d unused-allow findings, want 1: %v", unused, diags)
	}
}

func TestNewAnalyzer(t *testing.T) {
	for _, r := range Rules() {
		a, err := NewAnalyzer(r)
		if err != nil {
			t.Fatalf("NewAnalyzer(%q): %v", r, err)
		}
		if a.Name() != r {
			t.Errorf("NewAnalyzer(%q).Name() = %q", r, a.Name())
		}
	}
	if _, err := NewAnalyzer("bogus"); err == nil {
		t.Fatal("NewAnalyzer accepted an unknown rule")
	}
	if !KnownRule(RuleShardSafety) || KnownRule("bogus") || KnownRule(RuleDirective) {
		t.Fatal("KnownRule misclassifies")
	}
}

func TestRuleDoc(t *testing.T) {
	for _, r := range append(Rules(), RuleDirective) {
		if RuleDoc(r) == "" {
			t.Errorf("RuleDoc(%q) is empty", r)
		}
	}
	if RuleDoc("bogus") != "" {
		t.Error("RuleDoc invented documentation for an unknown rule")
	}
}

func TestLoadErrNoGoFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewLoader().Load(dir, "example.com/empty"); err == nil {
		t.Fatal("Load of an empty directory succeeded")
	}
}
