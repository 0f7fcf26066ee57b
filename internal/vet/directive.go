package vet

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowPrefix is the suppression marker. Like go:build directives, it
// must start the comment with no space after "//".
const allowPrefix = "//fairlint:allow"

// allowDirective is one parsed //fairlint:allow comment.
type allowDirective struct {
	file   string
	line   int
	col    int
	rule   string
	reason string
	used   bool
}

// ParseAllow parses the text of a single line comment (including the
// leading "//"). It returns the rule being allowed, the free-form reason,
// and whether the comment is a fairlint:allow directive at all. A
// directive with a missing rule or reason still parses (ok == true) with
// the corresponding field empty; policy checks happen later so the defect
// can be reported as a finding rather than silently ignored.
func ParseAllow(text string) (rule, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok {
		return "", "", false
	}
	// Require a word boundary: "//fairlint:allowx" is not a directive.
	if rest != "" && !isSpace(rest[0]) {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", true
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

// collectAllows extracts every fairlint:allow directive from the files'
// comments, in deterministic (file, position) order.
func collectAllows(fset *token.FileSet, root string, files []*ast.File) []*allowDirective {
	var out []*allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rule, reason, ok := ParseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, &allowDirective{
					file:   relFile(root, pos.Filename),
					line:   pos.Line,
					col:    pos.Column,
					rule:   rule,
					reason: reason,
				})
			}
		}
	}
	return out
}

// hotpathPrefix marks a function as a measured hot path. Like
// go:build and fairlint:allow directives, it must start the comment
// with no space after "//". The optional remainder is a free-form note
// ("fairbench case packet-parse") recorded for humans; the annotation
// itself is what arms rule hotalloc on the function and everything it
// reaches inside the hot-path scope.
const hotpathPrefix = "//fairbench:hotpath"

// ParseHotpath parses the text of a single line comment (including the
// leading "//"). It returns the free-form note and whether the comment
// is a fairbench:hotpath directive at all. "//fairbench:hotpathology"
// is not a directive: a word boundary is required after the marker.
func ParseHotpath(text string) (note string, ok bool) {
	rest, ok := strings.CutPrefix(text, hotpathPrefix)
	if !ok {
		return "", false
	}
	if rest != "" && !isSpace(rest[0]) {
		return "", false
	}
	return strings.Join(strings.Fields(rest), " "), true
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\n'
}

// hotpathLines returns, per file, the set of lines carrying a
// fairbench:hotpath directive. A function is annotated when a
// directive appears in its doc comment or on the line immediately
// above its declaration (the doc comment covers the idiomatic case;
// the line-above form mirrors fairlint:allow placement).
func hotpathLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if _, ok := ParseHotpath(c.Text); ok {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// isHotpathDecl reports whether decl carries a fairbench:hotpath
// annotation, given the file's directive line set.
func isHotpathDecl(fset *token.FileSet, lines map[int]bool, decl *ast.FuncDecl) bool {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if _, ok := ParseHotpath(c.Text); ok {
				return true
			}
		}
	}
	return lines[fset.Position(decl.Pos()).Line-1]
}
