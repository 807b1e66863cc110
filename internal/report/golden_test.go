package report

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hetsched/eas/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// fullOutput renders Table 1 plus all four efficiency figures — the
// complete `easbench` output.
func fullOutput(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	rows, err := Table1(0)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable1(&b, rows)
	b.WriteString("\n")
	for _, id := range []string{"Figure 9", "Figure 10", "Figure 11", "Figure 12"} {
		if err := allFigures(t)[id].Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestGoldenEvaluationOutput pins the evaluation's complete rendered
// output byte-for-byte. The simulation is deterministic (virtual clock,
// seeded randomness), so any diff means behaviour changed — rerun with
// `go test ./internal/report -run Golden -update` after an intentional
// model change and review the diff in EXPERIMENTS.md terms.
func TestGoldenEvaluationOutput(t *testing.T) {
	// The figures reproduce the paper's one decision per invocation: no
	// fast path or other decision accelerator may shape them.
	if d := (Options{}).withDefaults().EAS.Decision; d != (core.DecisionPolicy{}) {
		t.Fatalf("Fig. 9-12 EAS options set Decision %+v, want the zero policy", d)
	}
	got := fullOutput(t)
	path := filepath.Join("testdata", "easbench.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		// Report the first diverging line for a readable failure.
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output diverges at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output length changed: got %d lines, want %d", len(gl), len(wl))
	}
}
