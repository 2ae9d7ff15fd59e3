package lint_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// The meta-tests hold the suite's configuration against the repo
// itself, so neither the analyzer set nor the scope lists can
// silently go stale — the failure mode the retired hotpath_test.go's
// hand-maintained directory list was one refactor away from.

// TestSuiteComplete pins the analyzer set: retiring hotpath_test.go
// is only sound while all five checks exist and every one has a
// scope entry the driver can apply.
func TestSuiteComplete(t *testing.T) {
	want := []string{"batchoffer", "detsource", "hotalloc", "nanwire", "noreadall"}
	var got []string
	for _, a := range lint.Analyzers() {
		got = append(got, a.Name)
		if _, ok := lint.Scopes[a.Name]; !ok {
			t.Errorf("analyzer %s has no scope entry — the driver would never run it", a.Name)
		}
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("analyzer suite = %v, want %v", got, want)
	}
	for name := range lint.Scopes {
		found := false
		for _, a := range lint.Analyzers() {
			if a.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("scope entry %s names no registered analyzer", name)
		}
	}
}

// TestScopesCoverIngestGraph derives the ingest surface from the
// import graph instead of trusting the config: every package that
// imports the hub is feeding it ticks and must be under batchoffer;
// every importer of the binary wire must be under noreadall or carry
// an explicit, documented exemption.
func TestScopesCoverIngestGraph(t *testing.T) {
	imports := moduleImports(t)

	mustScope := func(analyzer, pkg string) {
		t.Helper()
		for _, p := range lint.Scopes[analyzer] {
			if p == pkg {
				return
			}
		}
		t.Errorf("%s is missing from Scopes[%q] — the config has gone stale", pkg, analyzer)
	}

	mustScope("batchoffer", "repro/sampling/hub")
	for pkg, imps := range imports {
		for _, imp := range imps {
			if imp == "repro/sampling/hub" {
				mustScope("batchoffer", pkg)
			}
		}
	}

	mustScope("noreadall", "repro/sampling/wire")
	for pkg, imps := range imports {
		for _, imp := range imps {
			if imp != "repro/sampling/wire" {
				continue
			}
			if _, exempt := lint.ReadAllExempt[pkg]; exempt {
				continue
			}
			mustScope("noreadall", pkg)
		}
	}
	for pkg := range lint.ReadAllExempt {
		uses := false
		for _, imp := range imports[pkg] {
			if imp == "repro/sampling/wire" {
				uses = true
			}
		}
		if !uses {
			t.Errorf("ReadAllExempt lists %s, which no longer imports repro/sampling/wire — stale exemption", pkg)
		}
	}
}

// TestObsImportersScoped holds the observability package to the same
// derive-from-the-import-graph discipline: obs itself must sit under
// detsource (its instruments take injected clocks), and every package
// that wires obs into a serving path must already be under batchoffer
// — instrumentation goes where ingest happens — or carry a documented
// exemption in ObsExempt.
func TestObsImportersScoped(t *testing.T) {
	const obsPath = "repro/internal/obs"
	imports := moduleImports(t)
	if _, ok := imports[obsPath]; !ok {
		t.Fatalf("%s holds no non-test Go sources", obsPath)
	}

	inScope := func(analyzer, pkg string) bool {
		for _, p := range lint.Scopes[analyzer] {
			if p == pkg {
				return true
			}
		}
		return false
	}
	if !inScope("detsource", obsPath) {
		t.Errorf("%s is missing from Scopes[%q] — its clocks must stay injected", obsPath, "detsource")
	}
	for pkg, imps := range imports {
		for _, imp := range imps {
			if imp != obsPath {
				continue
			}
			if _, exempt := lint.ObsExempt[pkg]; exempt {
				continue
			}
			if !inScope("batchoffer", pkg) {
				t.Errorf("%s imports %s but is neither under Scopes[%q] nor exempted in ObsExempt — instrumented serving paths keep the ingest invariants", pkg, obsPath, "batchoffer")
			}
		}
	}
	for pkg := range lint.ObsExempt {
		uses := false
		for _, imp := range imports[pkg] {
			if imp == obsPath {
				uses = true
			}
		}
		if !uses {
			t.Errorf("ObsExempt lists %s, which no longer imports %s — stale exemption", pkg, obsPath)
		}
	}
}

// TestScopedPackagesExist is the sawSource guard carried over from
// hotpath_test.go: every scoped path must hold non-test sources, so a
// renamed or deleted package fails the gate instead of silently
// shrinking it.
func TestScopedPackagesExist(t *testing.T) {
	imports := moduleImports(t)
	for analyzer, scope := range lint.Scopes {
		for _, pkg := range scope {
			if _, ok := imports[pkg]; !ok {
				t.Errorf("Scopes[%q] names %s, which holds no non-test Go sources — scope list stale", analyzer, pkg)
			}
		}
	}
}

// TestHotPathAnnotationsPresent keeps the hotalloc analyzer honest:
// annotation-driven checks enforce nothing if a refactor drops the
// directives, so the packages whose AllocsPerRun assertions hotalloc
// statically backs must each carry at least one.
func TestHotPathAnnotationsPresent(t *testing.T) {
	root := moduleRoot(t)
	for _, pkg := range []string{"sampling", "sampling/hub", "sampling/wire", "sampling/estimate", "internal/core", "internal/lrd", "internal/obs"} {
		dir := filepath.Join(root, filepath.FromSlash(pkg))
		found := false
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(data), lint.Directive) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s carries no %s directive — its hot path lost static allocation coverage", pkg, lint.Directive)
		}
	}
}

// moduleRoot walks up from the working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// moduleImports maps every module package (with non-test sources) to
// the imports of those sources, parsed imports-only.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	root := moduleRoot(t)
	out := make(map[string][]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "repro"
		if rel != "." {
			pkg = "repro/" + filepath.ToSlash(rel)
		}
		imps := out[pkg]
		for _, imp := range file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			imps = append(imps, p)
		}
		out[pkg] = imps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
