package report

import (
	"bytes"
	"context"
	"testing"

	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/powerchar"
)

func cacheStats() (hits, misses int) { return powerchar.DefaultCache.Stats() }

// TestParallelEvaluateMatchesSerial proves the evaluation grid's
// parallel fan-out is byte-identical to the serial nested loop for all
// four figures: every run boots its own platform and the shared
// schedules are read-only, so scheduling order cannot leak into the
// figures.
func TestParallelEvaluateMatchesSerial(t *testing.T) {
	for _, f := range []struct{ platform, metric string }{
		{"desktop", "edp"}, {"desktop", "energy"}, {"tablet", "edp"}, {"tablet", "energy"},
	} {
		t.Run(f.platform+"/"+f.metric, func(t *testing.T) {
			serial, err := Evaluate(f.platform, f.metric, Options{Serial: true})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := Evaluate(f.platform, f.metric, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var sb, pb bytes.Buffer
			if err := serial.Render(&sb); err != nil {
				t.Fatal(err)
			}
			if err := parallel.Render(&pb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
				t.Errorf("parallel evaluation rendered differently from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					sb.String(), pb.String())
			}
			// The structured results must agree too, not just the rendering.
			for _, w := range serial.Workloads {
				if serial.Oracle[w] != parallel.Oracle[w] {
					t.Errorf("%s: oracle result differs: %+v vs %+v", w, serial.Oracle[w], parallel.Oracle[w])
				}
				for _, s := range serial.Strategies {
					if serial.Cells[w][s] != parallel.Cells[w][s] {
						t.Errorf("%s/%s: cell differs: %+v vs %+v", w, s, serial.Cells[w][s], parallel.Cells[w][s])
					}
				}
			}
		})
	}
}

// TestEvaluateCtxCancelled checks the grid aborts promptly on a
// cancelled context instead of running all workloads × strategies.
func TestEvaluateCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvaluateCtx(ctx, "desktop", "edp", Options{}); err == nil {
		t.Error("cancelled ctx should abort the evaluation grid")
	}
}

// TestEvaluateSpecUsesCache checks that a nil Options.Model resolves
// through the shared powerchar cache rather than re-measuring — the
// second evaluation of the same platform must not add a cache miss.
func TestEvaluateSpecUsesCache(t *testing.T) {
	spec := platform.DesktopSpec()
	if _, err := evaluateSpec(context.Background(), spec, "edp", Options{}); err != nil {
		t.Fatal(err)
	}
	// Prime done (possibly by an earlier test); the next call must hit.
	_, missesBefore := cacheStats()
	if _, err := evaluateSpec(context.Background(), spec, "edp", Options{}); err != nil {
		t.Fatal(err)
	}
	if _, missesAfter := cacheStats(); missesAfter != missesBefore {
		t.Errorf("re-evaluating the same platform re-characterized it (misses %d → %d)", missesBefore, missesAfter)
	}
}
