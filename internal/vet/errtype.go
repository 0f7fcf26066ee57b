package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// errtype enforces the sentinel-error contract: every exported
// package-level Err* variable is a stable sentinel (built with errors.New
// or a dedicated error type, never fmt.Errorf), and every fmt.Errorf that
// mentions a sentinel wraps it with %w so errors.Is keeps working through
// the chain.
func errtype(p *pass) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				checkSentinelSpec(p, vs)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkErrorfWrap(p, call)
			return true
		})
	}
}

func isSentinelName(name string) bool {
	return strings.HasPrefix(name, "Err") && ast.IsExported(name)
}

func checkSentinelSpec(p *pass, vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if !isSentinelName(name.Name) {
			continue
		}
		obj := p.info.Defs[name]
		if obj == nil {
			continue
		}
		if !implementsEither(obj.Type(), errorIface) {
			p.report(name.Pos(), RuleErrType,
				"exported "+name.Name+" is not an error value",
				"sentinels must implement error; use errors.New or a dedicated error type")
			continue
		}
		if i >= len(vs.Values) {
			p.report(name.Pos(), RuleErrType,
				"exported sentinel "+name.Name+" has no initializer",
				"initialize at declaration so the sentinel identity is fixed for errors.Is")
			continue
		}
		init := ast.Unparen(vs.Values[i])
		if call, ok := init.(*ast.CallExpr); ok {
			if fn := calleeFunc(p.info, call); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf" {
				p.report(name.Pos(), RuleErrType,
					"sentinel "+name.Name+" built with fmt.Errorf is not a stable typed sentinel",
					"use errors.New(\"...\") or a dedicated error type so identity survives wrapping")
			}
		}
	}
}

// checkErrorfWrap flags fmt.Errorf calls that pass a sentinel (an
// exported Err* error value) without enough %w verbs to wrap it.
func checkErrorfWrap(p *pass, call *ast.CallExpr) {
	fn := calleeFunc(p.info, call)
	if fn == nil || !isPkgFunc(fn, "fmt") || fn.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	wraps := strings.Count(format, "%w") - strings.Count(format, "%%w")
	var sentinels []string
	for _, arg := range call.Args[1:] {
		var id *ast.Ident
		switch a := ast.Unparen(arg).(type) {
		case *ast.Ident:
			id = a
		case *ast.SelectorExpr:
			id = a.Sel
		default:
			continue
		}
		obj := identObj(p.info, id)
		if obj == nil || !isSentinelName(obj.Name()) {
			continue
		}
		if _, isVar := obj.(*types.Var); !isVar || !implementsEither(obj.Type(), errorIface) {
			continue
		}
		sentinels = append(sentinels, obj.Name())
	}
	if len(sentinels) > wraps {
		p.report(call.Pos(), RuleErrType,
			"fmt.Errorf mentions sentinel "+strings.Join(sentinels, ", ")+" without wrapping via %w",
			"use %w for the sentinel so errors.Is/errors.As see through the chain")
	}
}
