package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

const (
	allowPrefix      = "//sslint:allow"
	nosnapshotPrefix = "//sslint:nosnapshot"
	anyPrefix        = "//sslint:"
)

// allowDirective is one parsed //sslint:allow for one rule. A single comment
// naming several rules expands to one directive per rule, so each suppression
// is tracked (and reported when unused) independently.
type allowDirective struct {
	rule string
	file string
	line int
	// scopeStart/scopeEnd bound the enclosing function body when the
	// directive sits in a function doc comment; 0 when line-scoped.
	scopeStart, scopeEnd int
	pos                  token.Position
	used                 bool
}

// matches reports whether this directive suppresses the diagnostic: same
// rule, same file, and the diagnostic sits on the directive's line, the line
// directly below it, or inside its function scope.
func (a *allowDirective) matches(d Diagnostic) bool {
	if a.rule != d.Rule || a.file != d.Pos.Filename {
		return false
	}
	if d.Pos.Line == a.line || d.Pos.Line == a.line+1 {
		return true
	}
	return a.scopeStart != 0 && a.scopeStart <= d.Pos.Line && d.Pos.Line <= a.scopeEnd
}

// nosnapshotDirective is one parsed //sslint:nosnapshot: a declaration that
// the struct field on its line (or the line below, for a comment above the
// field) is genuinely ephemeral and exempt from snapshot-completeness.
type nosnapshotDirective struct {
	file string
	line int
	pos  token.Position
	used bool
}

// coversLine reports whether the directive applies to a field declared at
// the given position: the directive sits on the field's line (trailing
// comment) or the line above it.
func (n *nosnapshotDirective) coversLine(file string, line int) bool {
	return n.file == file && (n.line == line || n.line == line-1)
}

// directives holds one package's parsed //sslint: comments.
type directives struct {
	allows      []*allowDirective
	nosnapshots []*nosnapshotDirective
	problems    []Diagnostic // malformed directives, reported under RuleDirective
}

// nosnapshotFor returns the directive covering a field at the position, if
// any, marking it used.
func (d *directives) nosnapshotFor(pos token.Position) *nosnapshotDirective {
	for _, n := range d.nosnapshots {
		if n.coversLine(pos.Filename, pos.Line) {
			n.used = true
			return n
		}
	}
	return nil
}

// parseDirectives scans every comment of the package for //sslint: markers.
func parseDirectives(p *Package) *directives {
	d := &directives{}
	for _, f := range p.Files {
		// Map each doc-comment line to its function, so allows in doc
		// comments get function scope.
		docOwner := map[*ast.Comment]*ast.FuncDecl{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					docOwner[c] = fd
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimRight(c.Text, " \t")
				if !strings.HasPrefix(text, anyPrefix) {
					continue
				}
				pos := p.Position(c.Pos())
				switch {
				case strings.HasPrefix(text, allowPrefix+" "):
					d.parseAllow(p, c, docOwner[c], pos)
				case text == nosnapshotPrefix || strings.HasPrefix(text, nosnapshotPrefix+" "):
					d.parseNosnapshot(c, pos)
				default:
					d.problems = append(d.problems, Diagnostic{
						Rule: RuleDirective, Pos: pos,
						Message: fmt.Sprintf("unknown sslint directive %q", firstField(text)),
					})
				}
			}
		}
	}
	return d
}

// parseAllow validates one //sslint:allow comment and expands it into
// per-rule directives.
func (d *directives) parseAllow(p *Package, c *ast.Comment, owner *ast.FuncDecl, pos token.Position) {
	rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
	ruleList, justification, _ := strings.Cut(rest, " ")
	justification = strings.TrimSpace(strings.TrimLeft(justification, "—-: \t"))
	if justification == "" {
		d.problems = append(d.problems, Diagnostic{
			Rule: RuleDirective, Pos: pos,
			Message: "//sslint:allow requires a justification after the rule name",
		})
		return
	}
	seen := map[string]bool{}
	for _, rule := range strings.Split(ruleList, ",") {
		rule = strings.TrimSpace(rule)
		if seen[rule] {
			d.problems = append(d.problems, Diagnostic{
				Rule: RuleDirective, Pos: pos,
				Message: fmt.Sprintf("//sslint:allow lists rule %q twice — drop the duplicate", rule),
			})
			continue
		}
		seen[rule] = true
		if !KnownRule(rule) {
			d.problems = append(d.problems, Diagnostic{
				Rule: RuleDirective, Pos: pos,
				Message: fmt.Sprintf("//sslint:allow names unknown rule %q (have %v)", rule, Rules()),
			})
			continue
		}
		a := &allowDirective{rule: rule, file: pos.Filename, line: pos.Line, pos: pos}
		if owner != nil && owner.Body != nil {
			a.scopeStart = p.Position(owner.Body.Lbrace).Line
			a.scopeEnd = p.Position(owner.Body.Rbrace).Line
		}
		d.allows = append(d.allows, a)
	}
}

// parseNosnapshot validates one //sslint:nosnapshot comment. Whether it
// actually sits on a struct field is checked by the snapshotcomplete
// analyzer (a directive no field claims is reported as unused).
func (d *directives) parseNosnapshot(c *ast.Comment, pos token.Position) {
	rest := strings.TrimSpace(strings.TrimPrefix(c.Text, nosnapshotPrefix))
	justification := strings.TrimSpace(strings.TrimLeft(rest, "—-: \t"))
	if justification == "" {
		d.problems = append(d.problems, Diagnostic{
			Rule: RuleDirective, Pos: pos,
			Message: "//sslint:nosnapshot requires a justification (why is the field ephemeral?)",
		})
		return
	}
	d.nosnapshots = append(d.nosnapshots, &nosnapshotDirective{
		file: pos.Filename, line: pos.Line, pos: pos,
	})
}

func firstField(s string) string {
	if f := strings.Fields(s); len(f) > 0 {
		return f[0]
	}
	return s
}
