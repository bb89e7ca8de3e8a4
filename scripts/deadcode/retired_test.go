//go:build deadcode

package deadcode

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// rule is one pattern of retired.txt, whose header says what its lines mean.
type rule struct {
	allowEntry
	except, used, object bool   // a "! " line; a line's exception took effect; an edge to an object
	from, to             string // keys; from is empty for a declaration
	prefix, lit          string // text every name to matches starts with, and contains
}

// hits reports whether to matches one of names. A name without the
// pattern's longest literal text cannot match, so path.Match rarely runs.
func (r *rule) hits(names []string) bool {
	return slices.ContainsFunc(names, func(n string) bool { return strings.Contains(n, r.lit) && like(r.to, n) })
}

var retiredBy = regexp.MustCompile(`^PR [0-9]+:`)

// key readies a name or a pattern for path.Match, so that * crosses slashes.
func key(s string) string { return strings.ReplaceAll(s, "/", "\x00") }

func like(pattern string, names ...string) bool {
	return slices.ContainsFunc(names, func(n string) bool { ok, _ := path.Match(pattern, n); return ok })
}

// retired checks the tree under p.cfg.root against the list in file, whose
// declarations allowFile may not own, and returns what fails, each as "line:
// why", and the number of patterns checked. It loads what p has not.
func retired(p *program, file, allowFile string) ([]string, int, error) {
	entries, err1 := readAllow(file)
	allow, err2 := readAllow(allowFile)
	pkgs, err := p.loadTree(".")
	if err := errors.Join(err1, err2, err); err != nil {
		return nil, 0, err
	}
	var probs []string
	fail := func(r *rule, format string, args ...any) {
		probs = append(probs, strings.ReplaceAll(fmt.Sprintf("%d: "+format, append([]any{r.line}, args...)...), "\x00", "/"))
	}
	var rules []*rule
	for _, e := range entries {
		r := &rule{allowEntry: e}
		pattern, except := strings.CutPrefix(e.pattern, "! ")
		parts := strings.Split(key(pattern), " -> ")
		if len(parts) > 2 || slices.ContainsFunc(parts, func(s string) bool { return s == "" || strings.Contains(s, " ") || strings.Contains(s, "->") }) {
			fail(r, "malformed edge %q: want \"from -> to\"", e.pattern)
			continue
		}
		if !retiredBy.MatchString(e.reason) {
			fail(r, "the reason for %s does not start with \"PR <n>:\", the change that retired it", e.pattern)
		}
		r.except, r.to = except, parts[len(parts)-1]
		if !strings.ContainsAny(r.to, `?[\`) { // then only * is special
			chunks := strings.Split(r.to, "*")
			r.prefix, r.lit = chunks[0], slices.MaxFunc(chunks, func(a, b string) int { return len(a) - len(b) })
		}
		if len(parts) == 2 {
			r.from, r.object = parts[0], strings.Contains(r.to[strings.LastIndexByte(r.to, 0)+1:], ".") // a dot after the last slash
		}
		rules = append(rules, r)
	}

	// hit fails each rule of rs a site breaks that no exception of rs lets
	// stand: the declaration of to[0], or an edge to one of the names in to,
	// an object (pkg.Name) or a package. rs holds the rules that can apply
	// to the site: declsIn's for a declaration, edgesFrom's for an edge.
	hit := func(pos token.Pos, rs []*rule, to []string, verb string) {
		for _, r := range rs {
			if r.except || !r.hits(to) {
				continue
			}
			exempt := false
			for _, e := range rs {
				if e.except && e.hits(to) {
					e.used, exempt = true, true
				}
			}
			if !exempt {
				fail(r, "%s: %s %s", strings.TrimPrefix(rel(p.cfg.root, p.fset.Position(pos).String()), "internal/"), verb, to[0])
			}
		}
	}
	// declsIn returns the declaration rules that can match a name in package
	// pkg: a name starts with "pkg.", so the pattern's prefix must agree.
	decls := map[string][]*rule{}
	declsIn := func(pkg string) []*rule {
		rs, ok := decls[pkg]
		if !ok {
			for _, r := range rules {
				if r.from == "" && (strings.HasPrefix(r.prefix, pkg+".") || strings.HasPrefix(pkg+".", r.prefix)) {
					rs = append(rs, r)
				}
			}
			decls[pkg] = rs
		}
		return rs
	}
	// edgesFrom returns the edge rules whose from matches a file or its
	// package, split into package edges and object edges.
	edgesFrom := func(from []string) (imports, refers []*rule) {
		for _, r := range rules {
			if r.from != "" && like(r.from, from...) {
				if r.object {
					refers = append(refers, r)
				} else {
					imports = append(imports, r)
				}
			}
		}
		return imports, refers
	}
	var known []string                 // the keys of the tree's packages, files and declarations, and of what it imports
	names := map[types.Object]string{} // the objects type-checked files declare and their keys
	parsed := map[*pkg][]*ast.File{}   // the files the type-check leaves out: _test.go files and those behind a build tag
	seen := map[*types.Package]bool{}
	for _, pk := range pkgs {
		known = append(known, key(p.short(pk.path)), key(pk.path))
		for _, imp := range pk.types.Imports() { // an edge may name an imported name or method
			if seen[imp] {
				continue
			}
			seen[imp] = true
			for _, n := range imp.Scope().Names() {
				known = append(known, key(p.short(imp.Path())+"."+n))
				if t, ok := imp.Scope().Lookup(n).Type().(*types.Named); ok {
					for i := range t.NumMethods() {
						known = append(known, key(p.short(imp.Path())+"."+n+"."+t.Method(i).Name()))
					}
				}
			}
		}
		for _, name := range slices.Concat(pk.bp.TestGoFiles, pk.bp.XTestGoFiles, pk.bp.IgnoredGoFiles) {
			f, err := parser.ParseFile(p.fset, filepath.Join(pk.bp.Dir, name), nil, 0)
			if err != nil {
				return nil, 0, err
			}
			parsed[pk] = append(parsed[pk], f)
		}
		pkgKey := key(p.short(pk.path))
		for _, f := range slices.Concat(pk.files, parsed[pk]) {
			declared(pkgKey, f, func(name string, id *ast.Ident) {
				known, names[pk.info.Defs[id]] = append(known, name), name
				hit(id.Pos(), declsIn(pkgKey), []string{name}, "declares")
			})
		}
	}
	delete(names, nil) // what parsed files declare
	for _, pk := range pkgs {
		// What a parsed file names through an import counts as declared, and
		// a non-test one's imports and names are edges.
		for i, f := range slices.Concat(pk.files, parsed[pk]) {
			file := rel(p.cfg.root, p.fset.Position(f.Pos()).Filename)
			from, typed, test := []string{key(p.short(pk.path)), key(strings.TrimPrefix(file, "internal/"))}, i < len(pk.files), strings.HasSuffix(file, "_test.go")
			known = append(known, from[1])
			importRules, referRules := edgesFrom(from)
			imports := map[string]string{} // a parsed file's import names and the packages they name
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ImportSpec:
					ip, _ := strconv.Unquote(n.Path.Value)
					known, imports[path.Base(ip)] = append(known, key(ip)), key(p.short(ip))
					if n.Name != nil {
						imports[n.Name.Name] = key(p.short(ip))
					}
					if !test {
						hit(n.Pos(), importRules, []string{key(p.short(ip)), key(ip)}, "imports")
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && !typed && x.Obj == nil && imports[x.Name] != "" {
						to := []string{imports[x.Name] + "." + n.Sel.Name}
						hit(n.Sel.Pos(), declsIn(imports[x.Name]), to, "names")
						if !test {
							hit(n.Sel.Pos(), referRules, to, "refers to")
						}
					}
				case *ast.Ident: // in a parsed file, n uses nothing
					obj := canon(pk.info.Uses[n])
					if name := names[obj]; name == "" && tracked(obj) {
						names[obj] = key(p.short(obj.Pkg().Path()) + "." + declName(obj))
					}
					if name := names[obj]; name != "" {
						hit(n.Pos(), referRules, []string{name}, "refers to")
					}
				}
				return true
			})
		}
	}

	isKnown := make(map[string]bool, len(known))
	for _, k := range known {
		isKnown[k] = true
	}
	for _, r := range rules {
		// What a line names must exist: its from, and an edge's object, or
		// else the package it names or the type whose member it names.
		s := strings.SplitN(r.to, ".", 3)
		if len(s) == 3 {
			s[0] += "." + s[1]
		}
		if r.object {
			s[0] = r.to
		}
		for _, head := range []string{r.from, s[0]} {
			if head != "" && !isKnown[head] && (!strings.ContainsAny(head, `*?[\`) || !like(head, known...)) {
				fail(r, "%s: %s names nothing in the tree", r.pattern, head)
			}
		}
		for _, a := range allow {
			if r.from == "" && !r.except && (like(r.to, key(a.pattern)) || like(key(a.pattern), r.to)) {
				fail(r, "%s is retired, and allow.txt:%d owns it", r.pattern, a.line)
			}
		}
		if r.except && !r.used {
			fail(r, "exception %s lets nothing stand: delete it", r.pattern)
		}
	}
	return probs, len(rules), nil
}

// short is a package's name in retired.txt: its directory under the module
// root without internal/, or a standard package's import path.
func (p *program) short(importPath string) string {
	if rel, ok := strings.CutPrefix(importPath, p.cfg.module+"/"); ok {
		return strings.TrimPrefix(rel, "internal/")
	}
	return importPath
}

// declared calls fn with each name file f of package pkg declares: pkg.Name,
// pkg.Type.Member for a method, a field or an interface method, and
// pkg.Owner.name for any other name inside a top-level declaration Owner.
func declared(pkg string, f *ast.File, fn func(name string, id *ast.Ident)) {
	inside := func(owner string, decl ast.Node) {
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name != "_" && id.Obj != nil && id.Obj.Decl != decl && id.Obj.Pos() == id.Pos() {
				fn(owner+"."+id.Name, id)
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			owner := pkg + "." + d.Name.Name
			if d.Recv != nil {
				recv, _, _ := strings.Cut(strings.TrimLeft(types.ExprString(d.Recv.List[0].Type), "*"), "[")
				owner = pkg + "." + recv + "." + d.Name.Name
			}
			fn(owner, d.Name)
			inside(owner, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					fn(pkg+"."+s.Name.Name, s.Name)
					inside(pkg+"."+s.Name.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						fn(pkg+"."+id.Name, id)
					}
					inside(pkg+"."+s.Names[0].Name, s)
				}
			}
		}
	}
}
