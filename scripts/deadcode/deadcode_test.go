//go:build deadcode

package deadcode

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestInternalReachability is the gate: every declaration in internal/
// that no binary (cmd/), example (examples/) or bench row (bench/) runs
// is named by a pattern of allow.txt, whose reason gives its owner, and
// every pattern still matches something.
func TestInternalReachability(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	res, err := scan(config{root: root, module: "repro", roots: []string{"cmd", "examples", "bench"}, scanned: "internal"})
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow("allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("deadcode: %d unreached declarations in internal/, %d lines with their doc comments\n",
		len(res.unreached), res.lines)
	fmt.Printf("deadcode: %d exported names in internal/ used only inside their own package\n", res.ownOnly)
	unowned, stale := check(res, allow)
	for _, d := range unowned {
		t.Errorf("%s: %s is run by no binary, example or bench row (%d lines): delete it, or name its owner in allow.txt",
			rel(root, d.pos.String()), d.name, d.lines)
	}
	for _, a := range stale {
		t.Errorf("allow.txt:%d: pattern %s matches no unreached declaration: delete it", a.line, a.pattern)
	}
	tests, err := testNames(root)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range allow {
		if i > 0 && allow[i-1].line == a.line {
			continue // another alternative of the same line
		}
		for _, name := range testName.FindAllString(a.reason, -1) {
			if !tests[name] {
				t.Errorf("allow.txt:%d: the reason names %s, which no test file declares", a.line, name)
			}
		}
	}
}

var testName = regexp.MustCompile(`\bTest[A-Z]\w*`)

// testNames collects the Test functions declared anywhere under root.
func testNames(root string) (map[string]bool, error) {
	decl := regexp.MustCompile(`(?m)^func (Test[A-Z]\w*)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(file string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(file, "_test.go") {
			if err == nil && d.IsDir() && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		src, err := os.ReadFile(file)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return err
	})
	return names, err
}

// TestScanFixture runs the scan on testdata/fixture, a module whose one
// binary reaches some of a library, so the gate cannot pass vacuously.
func TestScanFixture(t *testing.T) {
	root, err := filepath.Abs("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	res, err := scan(config{root: root, module: "fixture", roots: []string{"cmd"}, scanned: "internal"})
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow(filepath.Join(root, "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	unowned, stale := check(res, allow)
	var got []string
	for _, d := range unowned {
		got = append(got, d.name)
	}
	want := []string{
		"lib.Square.Perimeter", // its interface method is never called
		"lib.Unused",           // a func nothing calls
		"lib.unusedType",       // a type nothing names, with its method
		"lib.unusedType.Twice",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagged %q, want %q", got, want)
	}
	var gone []string
	for _, a := range stale {
		gone = append(gone, a.pattern)
	}
	// lib.Went is one alternative of a {a,b} line whose other is used.
	if want := []string{"lib.Gone", "lib.Went"}; !reflect.DeepEqual(gone, want) {
		t.Errorf("stale patterns %q, want %q", gone, want)
	}
	// Lines are counted with the doc comment: Unused is three lines.
	for _, d := range res.unreached {
		if d.name == "lib.Unused" && d.lines != 3 {
			t.Errorf("lib.Unused counted %d lines, want 3", d.lines)
		}
	}
}

func rel(root, pos string) string {
	return strings.TrimPrefix(pos, root+string(filepath.Separator))
}
