package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hmg/internal/lint"
)

// loadFixture copies testdata/src/<name> into a fresh module and runs
// the selected analyzers over it, in the style of
// golang.org/x/tools/go/analysis/analysistest.
func loadFixture(t *testing.T, name, analyzers string) ([]lint.Diagnostic, string) {
	t.Helper()
	tmp := t.TempDir()
	src := filepath.Join("testdata", "src", name)
	if err := copyTree(src, tmp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sel, err := lint.Select(analyzers)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(tmp, []string{"./..."}, sel)
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return diags, tmp
}

// checkWants asserts the exact two-way correspondence between
// diagnostics and the fixture's `// want "regexp"` comments: every
// diagnostic matches a want on its line, every want is matched.
func checkWants(t *testing.T, diags []lint.Diagnostic, root string) {
	t.Helper()
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[string][]*want{} // "relfile:line" → expectations
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			for _, q := range wantRE.FindAllString(line[idx:], -1) {
				var pat string
				if q[0] == '`' {
					pat = q[1 : len(q)-1]
				} else {
					var err error
					pat, err = strconv.Unquote(q)
					if err != nil {
						return fmt.Errorf("%s:%d: bad want pattern %s", rel, i+1, q)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regexp: %v", rel, i+1, err)
				}
				key := fmt.Sprintf("%s:%d", rel, i+1)
				wants[key] = append(wants[key], &want{re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range diags {
		rel, _ := filepath.Rel(root, d.Position.Filename)
		key := fmt.Sprintf("%s:%d", rel, d.Position.Line)
		found := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s (%s)", key, d.Message, d.Analyzer)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing expected diagnostic at %s matching %q", key, w.re)
			}
		}
	}
}

// wantRE captures one quoted or backquoted want pattern.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func TestDeterminismFixture(t *testing.T) {
	diags, root := loadFixture(t, "determinism", "determinism")
	checkWants(t, diags, root)
}

func TestEventEmitFixture(t *testing.T) {
	diags, root := loadFixture(t, "eventemit", "eventemit")
	checkWants(t, diags, root)
}

func TestExhaustiveFixture(t *testing.T) {
	diags, root := loadFixture(t, "exhaustive", "exhaustive")
	checkWants(t, diags, root)
}

func TestReadonlyHooksFixture(t *testing.T) {
	diags, root := loadFixture(t, "readonlyhooks", "readonlyhooks")
	checkWants(t, diags, root)
}

// TestHotAllocFixture exercises the interprocedural reachability pass:
// wants live in both fixture packages because Handle-rooted findings
// cross the package boundary through the FnFact call graph.
func TestHotAllocFixture(t *testing.T) {
	diags, root := loadFixture(t, "hotalloc", "hotalloc")
	checkWants(t, diags, root)
}

// TestDirectiveValidation: malformed directives are findings and do
// not suppress; a well-formed directive does. (Assertions are explicit
// because a want comment cannot share a line with the directive under
// test.)
func TestDirectiveValidation(t *testing.T) {
	diags, _ := loadFixture(t, "directives", "determinism")
	var gotMissingReason, gotUnknown int
	var ranges []int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "missing its mandatory reason"):
			gotMissingReason++
		case strings.Contains(d.Message, "unknown analyzer \"nosuchpass\""):
			gotUnknown++
		case strings.Contains(d.Message, "range over map"):
			ranges = append(ranges, d.Position.Line)
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if gotMissingReason != 1 {
		t.Errorf("missing-reason directive findings = %d, want 1", gotMissingReason)
	}
	if gotUnknown != 1 {
		t.Errorf("unknown-analyzer directive findings = %d, want 1", gotUnknown)
	}
	// The two malformed directives suppress nothing (2 range findings);
	// the well-formed one in good() suppresses its range.
	if len(ranges) != 2 {
		t.Errorf("unsuppressed range findings = %d (lines %v), want 2", len(ranges), ranges)
	}
}

// TestSelectUnknown mirrors proto.ParseKind: an unknown name lists the
// known set.
func TestSelectUnknown(t *testing.T) {
	_, err := lint.Select("bogus")
	if err == nil {
		t.Fatal("Select(bogus) succeeded")
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(err.Error(), a.Name) {
			t.Errorf("error %q does not list analyzer %s", err, a.Name)
		}
	}
}

// TestRepoClean is the acceptance criterion as a test: the full suite
// over the whole repository, zero findings.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module")
	}
	diags, err := lint.Run("../..", []string{"./..."}, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
