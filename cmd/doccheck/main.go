// Command doccheck keeps the documentation layer honest against the
// code. Three checks, any failure fails `make ci`:
//
//  1. Route coverage — every route pattern registered on a ServeMux in
//     internal/server and internal/cluster (e.g. "POST /v1/simulate")
//     must appear verbatim in API.md, so a new endpoint cannot ship
//     undocumented.
//
//  2. Markdown links — every intra-repo relative link in the tracked
//     markdown files must resolve to an existing file, so renames and
//     deletions cannot leave dangling references.
//
//  3. Doc comments — every exported top-level declaration in the
//     packages of commentDirs (the simulator, its traces, workloads and
//     oracle, and the server, cluster and persist tiers API.md leans
//     on) must carry a doc comment.
//
//     go run ./cmd/doccheck             # checks from the repo root
//     go run ./cmd/doccheck -root /path
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// routeDirs are the packages whose mux registrations define the HTTP
// surface; apiDoc is the reference that must cover all of them.
var routeDirs = []string{"internal/server", "internal/cluster"}

const apiDoc = "API.md"

// docFiles are the markdown files whose links are checked. Kept
// explicit so a stray scratch file cannot fail CI.
var docFiles = []string{
	"README.md", "TUTORIAL.md", "API.md", "OPERATIONS.md",
	"DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "PAPER.md", "CHANGES.md",
}

// commentDirs are the packages whose exported identifiers must carry
// doc comments.
var commentDirs = []string{
	"internal/cache", "internal/cluster", "internal/oracle", "internal/persist",
	"internal/server", "internal/trace", "internal/workloads",
}

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	checkRoutes(*root, report)
	checkLinks(*root, report)
	checkDocComments(*root, report)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "doccheck: "+p)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "doccheck: "+format+"\n", args...)
	os.Exit(2)
}

// checkRoutes extracts every literal route pattern from mux
// registrations under routeDirs and requires API.md to contain each
// one verbatim.
func checkRoutes(root string, report func(string, ...any)) {
	api, err := os.ReadFile(filepath.Join(root, apiDoc))
	if err != nil {
		fatalf("reading %s: %v", apiDoc, err)
	}
	doc := string(api)
	for _, dir := range routeDirs {
		for _, r := range muxRoutes(filepath.Join(root, dir)) {
			if !strings.Contains(doc, r.pattern) {
				report("%s: route %q registered at %s is not documented in %s",
					dir, r.pattern, r.pos, apiDoc)
			}
		}
	}
}

// route is one extracted mux registration.
type route struct {
	pattern string
	pos     string
}

// muxRoutes parses every non-test Go file in dir (flat, like the HTTP
// layers) and collects the string-literal patterns of Handle/HandleFunc
// calls on a mux.
func muxRoutes(dir string) []route {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fatalf("reading %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var routes []route
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			fatalf("parsing %s: %v", name, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") {
				return true
			}
			if !isMux(sel.X) || len(call.Args) != 2 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			pattern := strings.Trim(lit.Value, `"`)
			routes = append(routes, route{pattern: pattern, pos: fset.Position(call.Pos()).String()})
			return true
		})
	}
	return routes
}

// isMux mirrors obscheck's notion of the package mux: a field or
// variable named "mux".
func isMux(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == "mux"
	case *ast.Ident:
		return x.Name == "mux"
	}
	return false
}

// mdLink matches inline markdown links [text](target); images share the
// shape with a leading '!', which the pattern tolerates.
var mdLink = regexp.MustCompile(`\[[^\]\n]*\]\(([^)\s]+)\)`)

// checkLinks resolves every relative link target in the tracked
// markdown files against the filesystem. External schemes and pure
// fragments are skipped; a fragment on a relative target is stripped
// (anchors are not checked, files are).
func checkLinks(root string, report func(string, ...any)) {
	for _, name := range docFiles {
		path := filepath.Join(root, name)
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // optional docs may not exist in every checkout
			}
			fatalf("reading %s: %v", name, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				report("%s: link target %q does not resolve (%s)", name, m[1], resolved)
			}
		}
	}
}

// checkDocComments requires a doc comment on every exported top-level
// declaration (funcs, methods on exported receivers, types, and
// exported names in const/var blocks without a block comment) in
// commentDirs.
func checkDocComments(root string, report func(string, ...any)) {
	for _, dir := range commentDirs {
		full := filepath.Join(root, dir)
		entries, err := os.ReadDir(full)
		if err != nil {
			fatalf("reading %s: %v", dir, err)
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(full, name), nil, parser.ParseComments)
			if err != nil {
				fatalf("parsing %s: %v", name, err)
			}
			for _, decl := range f.Decls {
				checkDecl(fset, dir, decl, report)
			}
		}
	}
}

func checkDecl(fset *token.FileSet, dir string, decl ast.Decl, report func(string, ...any)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		// Methods on unexported receiver types are not part of the
		// package's documented surface (the interface they satisfy is).
		if d.Recv != nil && len(d.Recv.List) > 0 && !ast.IsExported(strings.TrimPrefix(typeName(d.Recv.List[0].Type), "*")) {
			return
		}
		if d.Name.IsExported() && d.Doc.Text() == "" {
			report("%s: exported %s lacks a doc comment (%s)", dir, funcLabel(d), fset.Position(d.Pos()))
		}
	case *ast.GenDecl:
		blockDoc := d.Doc.Text() != ""
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && !blockDoc && s.Doc.Text() == "" && s.Comment.Text() == "" {
					report("%s: exported type %s lacks a doc comment (%s)", dir, s.Name.Name, fset.Position(s.Pos()))
				}
			case *ast.ValueSpec:
				// A doc comment on the const/var block, the spec, or a
				// trailing line comment all count — grouped constants
				// conventionally share one comment.
				if blockDoc || s.Doc.Text() != "" || s.Comment.Text() != "" {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						report("%s: exported %s lacks a doc comment (%s)", dir, n.Name, fset.Position(n.Pos()))
					}
				}
			}
		}
	}
}

// funcLabel renders "func Name" or "method (T).Name" for diagnostics.
func funcLabel(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "func " + d.Name.Name
	}
	return fmt.Sprintf("method (%s).%s", typeName(d.Recv.List[0].Type), d.Name.Name)
}

func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return "*" + typeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return typeName(t.X)
	}
	return "?"
}
