package repro

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesStdoutGolden builds every program under examples/ and compares
// its stdout, byte for byte, with testdata/examples/<name>.golden.txt: each
// is a self-contained use of the library whose output is a pure function of
// its code. Regenerate with UPDATE_EXAMPLES_GOLDEN=1 only in a change that
// says which number moved and why.
func TestExamplesStdoutGolden(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, d := range dirs {
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			golden := filepath.Join("testdata", "examples", name+".golden.txt")
			if os.Getenv("UPDATE_EXAMPLES_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with UPDATE_EXAMPLES_GOLDEN=1)", err)
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("stdout differs from %s:\n--- got\n%s--- want\n%s", golden, got, want)
			}
		})
	}
}
