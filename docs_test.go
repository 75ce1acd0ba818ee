package repro

import (
	"go/build"
	"os"
	"regexp"
	"testing"
)

// TestDocsRunExistingPrograms: every `go run ./<path>` in the user
// documentation must name a directory that holds a main package, so no
// documented workflow points at a deleted program.
func TestDocsRunExistingPrograms(t *testing.T) {
	goRun := regexp.MustCompile("go run \\./([^\\s`]+)")
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goRun.FindAllStringSubmatch(string(text), -1) {
			pkg, err := build.ImportDir(m[1], 0)
			if err != nil {
				t.Errorf("%s: go run ./%s: %v", doc, m[1], err)
			} else if pkg.Name != "main" {
				t.Errorf("%s: go run ./%s: package %s, not main", doc, m[1], pkg.Name)
			}
		}
	}
}
