package eas

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// faultVerbExamples gives every ParseFaultPlan verb a spec that
// delivers it within a few invocations, and the FaultStats count that
// shows the delivery.
var faultVerbExamples = map[string]struct {
	spec      string
	delivered func(FaultStats) int
}{
	"gpubusy":    {"gpubusy=2", func(s FaultStats) int { return s.GPUBusy }},
	"hang":       {"hang=1", func(s FaultStats) int { return s.KernelHangs }},
	"enqueue":    {"enqueue=2", func(s FaultStats) int { return s.EnqueueErrors }},
	"slow":       {"slow=4x2", func(s FaultStats) int { return s.SlowDispatches }},
	"stuck":      {"stuck=6", func(s FaultStats) int { return s.StuckMSRReads }},
	"noise":      {"noise=0.5", func(s FaultStats) int { return s.NoisyMSRReads }},
	"wrapgap":    {"wrapgap=1", func(s FaultStats) int { return s.WrapGaps }},
	"hwcdrop":    {"hwcdrop=2", func(s FaultStats) int { return s.HWCDrops }},
	"hwccorrupt": {"hwccorrupt=1", func(s FaultStats) int { return s.HWCCorruptions }},
	"lie":        {"lie=0.1x2", func(s FaultStats) int { return s.ProfileLies }},
	"hold":       {"hold=1x1", func(s FaultStats) int { return s.AdmissionHolds }},
	"walerr":     {"walerr=1", func(s FaultStats) int { return s.WALWriteErrors }},
	"walshort":   {"walshort=1", func(s FaultStats) int { return s.WALShortWrites }},
	"walfull":    {"walfull=1", func(s FaultStats) int { return s.WALNoSpaceWrites }},
}

// TestEveryFaultVerbRunsEachItemOnce holds the exactly-once invariant
// under every fault verb: whatever a fault does to the device, the
// sensors, the admission gate or the WAL, each successful invocation
// ran every index exactly once.
func TestEveryFaultVerbRunsEachItemOnce(t *testing.T) {
	for _, v := range faultVerbs {
		t.Run(v.name, func(t *testing.T) {
			ex, ok := faultVerbExamples[v.name]
			if !ok {
				t.Fatalf("fault verb %q has no example spec", v.name)
			}
			plan, err := ParseFaultPlan(ex.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Only a timeout recovers a hung dispatch. Elsewhere it stays
			// off: a running share that outlives it is re-executed on the
			// CPU while it still runs (DESIGN.md §7), which is not the
			// exactly-once case this test holds.
			var timeout time.Duration
			if v.name == "hang" {
				timeout = 200 * time.Millisecond
			}
			rt, err := NewRuntime(DesktopPlatform(), Config{
				Metric:             EDP,
				Model:              sharedModel(t),
				Faults:             plan,
				GPUDispatchTimeout: timeout,
				GPURetry:           RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
				Robustness:         Robustness{Meter: true, ValidateProfiles: true},
				State:              StatePolicy{Path: filepath.Join(t.TempDir(), "alpha.state")},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()

			// Large enough that both devices get a share, small enough
			// that a share runs far inside the hang timeout.
			n := 4 * rt.Platform().GPUProfileSize()
			hits := make([]atomic.Int32, n)
			k := computeKernel("verb-"+v.name, func(i int) { hits[i].Add(1) })
			succeeded, offloaded := 0, 0
			for inv := 0; inv < 4; inv++ {
				for i := range hits {
					hits[i].Store(0)
				}
				rep, err := rt.ParallelFor(k, n)
				if err != nil {
					t.Logf("invocation %d failed: %v", inv, err)
					continue
				}
				succeeded++
				if rep.Alpha > 0 {
					offloaded++
				}
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Fatalf("invocation %d: index %d ran %d times, want 1", inv, i, h)
					}
				}
			}
			if succeeded == 0 || offloaded == 0 {
				t.Errorf("%d invocations succeeded, %d gave the GPU a share; want both > 0", succeeded, offloaded)
			}
			if s := plan.Stats(); ex.delivered(s) == 0 {
				t.Errorf("spec %q delivered no %s fault: %+v", ex.spec, v.name, s)
			}
		})
	}
}

// FuzzParseFaultPlan feeds the CLI fault-spec parser arbitrary input:
// it never panics, a rejected spec yields a nil plan and an error, and
// an accepted spec yields a plan that has delivered nothing yet.
func FuzzParseFaultPlan(f *testing.F) {
	for _, v := range faultVerbs {
		f.Add(faultVerbExamples[v.name].spec)
	}
	for _, spec := range []string{
		"", " , ", "gpubusy", "gpubusy=-1", "slow=4", "slow=0x3",
		"noise=-0.5", "lie=1x2", "hold=NaNx1", "stuck=6,noise=0.5,lie=0.1x2",
		"bogus=1", "=", "slow=x", "hold=1e300x1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaultPlan(spec, 1)
		if err != nil {
			if plan != nil {
				t.Errorf("ParseFaultPlan(%q) returned a plan with error %v", spec, err)
			}
			if !strings.HasPrefix(err.Error(), "eas: ") {
				t.Errorf("ParseFaultPlan(%q) error %q lacks the eas: prefix", spec, err)
			}
			return
		}
		if plan == nil {
			t.Fatalf("ParseFaultPlan(%q) accepted without a plan", spec)
		}
		if s := plan.Stats(); s != (FaultStats{}) {
			t.Errorf("ParseFaultPlan(%q) delivered faults before use: %+v", spec, s)
		}
	})
}
