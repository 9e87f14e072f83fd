package smatch

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsReferencesExist keeps the prose honest: every backticked test,
// fuzz or benchmark name in DESIGN.md, README.md and SECURITY.md must name
// a func in some _test.go (a trailing * matches by prefix), and every
// backticked internal/, cmd/, examples/ or bench/ path must exist once a
// :line or .Symbol suffix is stripped.
func TestDocsReferencesExist(t *testing.T) {
	funcs := map[string]bool{}
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)\w*\*?$`)
	pathRE := regexp.MustCompile(`^(?:internal|cmd|examples|bench)/\S*$`)
	spanRE := regexp.MustCompile("`([^`\n]+)`")
	for _, doc := range []string{"DESIGN.md", "README.md", "SECURITY.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range spanRE.FindAllStringSubmatch(string(src), -1) {
			span := m[1]
			switch {
			case nameRE.MatchString(span):
				if !funcExists(funcs, span) {
					t.Errorf("%s: `%s` names no func in any _test.go", doc, span)
				}
			case pathRE.MatchString(span):
				if !pathExists(span) {
					t.Errorf("%s: `%s` is not a path in the repository", doc, span)
				}
			}
		}
	}
}

func funcExists(funcs map[string]bool, name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return funcs[name]
	}
	for f := range funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// pathExists strips a :line suffix, then tries the path with trailing
// .Symbol segments removed one at a time (internal/wire.UploadReq names
// the directory internal/wire).
func pathExists(span string) bool {
	p, _, _ := strings.Cut(span, ":")
	for {
		if _, err := os.Stat(p); err == nil {
			return true
		}
		dot := strings.LastIndex(p, ".")
		if dot <= strings.LastIndex(p, "/") {
			return false
		}
		p = p[:dot]
	}
}

// designBudget is DESIGN.md's size ceiling in bytes (45 KiB). DESIGN is a
// reference, one section per mechanism; measurements and history belong
// in CHANGES.md. A change that needs more room raises this with a reason.
const designBudget = 46080

// TestDesignBudget fails when DESIGN.md outgrows its budget.
func TestDesignBudget(t *testing.T) {
	fi, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > designBudget {
		t.Errorf("DESIGN.md is %d bytes, budget %d: move measurements and history to CHANGES.md", fi.Size(), designBudget)
	}
}

// TestDesignSectionCitations: every "DESIGN §N", "DESIGN.md §N" or
// "DESIGN section N" in the Go sources and the docs that cite DESIGN names
// a "## N." heading that exists. CHANGES.md is history and cites sections
// as they were; ROADMAP.md is re-anchored on its own schedule.
func TestDesignSectionCitations(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	files := []string{"README.md", "SECURITY.md", "EXPERIMENTS.md", "testdata/unreached.txt"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A citation may wrap across a line break, in a Go comment too.
	wrap := regexp.MustCompile(`\s*\n\s*(?://\s*)?`)
	citeRE := regexp.MustCompile("DESIGN(?:\\.md)?`? (?:§ ?|section )(\\d+)")
	cites := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citeRE.FindAllStringSubmatch(wrap.ReplaceAllString(string(src), " "), -1) {
			cites++
			if !sections[m[1]] {
				t.Errorf("%s: %q names no section of DESIGN.md", path, m[0])
			}
		}
	}
	if cites == 0 {
		t.Error("no DESIGN section citations found: the pattern no longer matches how the tree cites DESIGN")
	}
}
