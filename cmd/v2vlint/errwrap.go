package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// errwrap guards the error-identity contract: sentinel errors like
// container.ErrCorruptPacket survive package boundaries only when
// wrapped with %w, and they can only be recognized with errors.Is once
// wrapping is in play. Comparing errors with == silently breaks the
// moment anyone adds a fmt.Errorf layer, and formatting an error with
// %v inside fmt.Errorf severs the chain errors.Is walks.
func errwrap(p *pkg) []finding {
	var out []finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, finding{p.fset.Position(pos), "errwrap", fmt.Sprintf(format, args...)})
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				xt, yt := p.info.TypeOf(n.X), p.info.TypeOf(n.Y)
				if isUntypedNil(xt) || isUntypedNil(yt) {
					return true // err == nil is the one legitimate identity check
				}
				if implementsError(xt) && implementsError(yt) {
					hint := "errors.Is"
					if n.Op == token.NEQ {
						hint = "!errors.Is"
					}
					report(n.OpPos, "error compared with %s; use %s so wrapped errors still match", n.Op, hint)
				}
			case *ast.CallExpr:
				if isErrorf(p.info, n) {
					checkErrorf(p.info, n, report)
				}
			}
			return true
		})
	}
	return out
}

func checkErrorf(info *types.Info, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	if len(call.Args) < 2 || call.Ellipsis != token.NoPos {
		return
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	for i, verb := range formatVerbs(constant.StringVal(tv.Value)) {
		if i+1 >= len(call.Args) {
			break
		}
		arg := call.Args[i+1]
		if t := info.TypeOf(arg); verb != 'w' && implementsError(t) && !isUntypedNil(t) {
			report(arg.Pos(), "error argument formatted with %%%c; use %%w so the cause stays unwrappable", verb)
		}
	}
}

// isErrorf reports whether call invokes fmt.Errorf.
func isErrorf(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && obj.Name() == "Errorf"
}

var errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t (or *t) satisfies the error
// interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// formatVerbs returns the argument-consuming verbs of a fmt format
// string in order; a '*' width or precision consumes an argument and is
// emitted as '*'.
func formatVerbs(format string) []rune {
	var verbs []rune
	rs := []rune(format)
	for i := 0; i < len(rs); i++ {
		if rs[i] != '%' {
			continue
		}
		i++
	flags:
		for i < len(rs) {
			switch rs[i] {
			case '+', '-', '#', ' ', '0', '.', '1', '2', '3', '4', '5', '6', '7', '8', '9':
				i++
			case '*':
				verbs = append(verbs, '*')
				i++
			default:
				break flags
			}
		}
		if i < len(rs) && rs[i] != '%' {
			verbs = append(verbs, rs[i])
		}
	}
	return verbs
}
