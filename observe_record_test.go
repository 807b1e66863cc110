package eas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSharedObserverKeepsOpenBreakerState runs two runtimes on one
// Observer: A's breaker opens under a busy GPU, then B, whose breaker
// is off, serves invocations. eas_breaker_state reports the breaker
// that moved, so B's invocations must leave it at 1 (open).
func TestSharedObserverKeepsOpenBreakerState(t *testing.T) {
	observer := NewObserver(ObserverOptions{})
	plan := NewFaultPlan(3)
	plan.GPUBusyFor(1000)
	a := robustRuntime(t, plan, Config{
		Observer:          observer,
		BreakerThreshold:  1,
		BreakerProbeAfter: 1000,
		GPURetry:          RetryPolicy{MaxAttempts: 1},
	})
	defer a.Close()
	b := robustRuntime(t, nil, Config{Observer: observer})
	defer b.Close()

	k := computeKernel("breaker-shared", nil)
	rep, err := a.ParallelFor(k, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BreakerState != "open" {
		t.Fatalf("A's breaker is %q after a busy fallback, want open", rep.BreakerState)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.ParallelFor(k, 200000); err != nil {
			t.Fatal(err)
		}
	}
	if gauge := metricLine(t, observer, "eas_breaker_state"); gauge != "eas_breaker_state 1" {
		t.Errorf("after B's invocations the gauge reads %q, want A's open breaker (1)", gauge)
	}
}

// heldGate is a runtime whose admission gate a held invocation owns,
// with invocations queued behind it.
type heldGate struct {
	rt      *Runtime
	release context.CancelFunc // ends the hold
	done    chan error         // one result per invocation started
	started int
}

// holdGate builds a runtime on observer, wedges its gate with one
// held invocation and queues n more behind it.
func holdGate(t *testing.T, observer *Observer, n int) *heldGate {
	t.Helper()
	plan := NewFaultPlan(5)
	plan.HoldAdmission(time.Hour, 1)
	// One buffered slot per invocation started, so none blocks on send.
	g := &heldGate{rt: robustRuntime(t, plan, Config{Observer: observer}), done: make(chan error, n+1)}
	ctx, cancel := context.WithCancel(context.Background())
	g.release = cancel
	k := computeKernel("gauge-shared", nil)
	run := func(ctx context.Context) {
		g.started++
		go func() {
			_, err := g.rt.ParallelForCtx(ctx, k, 200000)
			g.done <- err
		}()
	}
	run(ctx)
	await(t, "the held invocation to own the gate", func() bool {
		return g.rt.AdmissionStats().Admitted[ClassInteractive] == 1
	})
	for i := 0; i < n; i++ {
		run(context.Background())
	}
	await(t, "the queue behind the hold", func() bool {
		return g.rt.AdmissionStats().QueueDepth[ClassInteractive] == n
	})
	return g
}

// drain ends the hold and waits for every invocation: the held one
// may fail with its cancelled context, the queued ones must succeed.
func (g *heldGate) drain(t *testing.T) {
	t.Helper()
	g.release()
	var failed int
	for i := 0; i < g.started; i++ {
		if err := <-g.done; err != nil {
			failed++
		}
	}
	if failed > 1 {
		t.Errorf("%d invocations failed, want at most the held one", failed)
	}
}

// await spins until cond holds, yielding between checks.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// metricLine returns the exposition line of one series.
func metricLine(t *testing.T, o *Observer, series string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := o.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, series+" ") {
			return line
		}
	}
	return series + " missing"
}

// TestSharedObserverSumsAdmissionGauges runs two runtimes on one
// Observer, each gate held with invocations queued behind it. The
// admission gauges must read the sum of both gates, and the
// survivor's queue once the other runtime has drained and closed.
func TestSharedObserverSumsAdmissionGauges(t *testing.T) {
	observer := NewObserver(ObserverOptions{})
	a := holdGate(t, observer, 2)
	defer a.rt.Close()
	defer a.release()
	b := holdGate(t, observer, 1)
	defer b.rt.Close()
	defer b.release()

	const waiters, depth = "eas_admission_waiters", `eas_admission_queue_depth{class="interactive"}`
	for _, series := range []string{waiters, depth} {
		if got := metricLine(t, observer, series); got != series+" 3" {
			t.Errorf("with 2+1 queued: %q, want %s 3", got, series)
		}
	}
	a.drain(t)
	if err := a.rt.Close(); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{waiters, depth} {
		if got := metricLine(t, observer, series); got != series+" 1" {
			t.Errorf("after A closed: %q, want B's %s 1", got, series)
		}
	}
	b.drain(t)
	for _, series := range []string{waiters, depth} {
		if got := metricLine(t, observer, series); got != series+" 0" {
			t.Errorf("after both drained: %q, want %s 0", got, series)
		}
	}
}

// traceEvent is one exported Chrome trace event with its timing.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	TID   uint64         `json:"tid"`
	Args  map[string]any `json:"args"`
}

func observerTrace(t *testing.T, o *Observer) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

// checkTrack checks the trace invariant on one invocation's track:
// exactly one root X slice with no parent; every other event parented
// to the root or to one of its slices, and every child slice within
// the root's bounds; an alpha-search slice with explain args iff the
// invocation searched; and exactly the instants named in want. It
// returns the track's slice names.
func checkTrack(t *testing.T, events []traceEvent, tid uint64, searched bool, want []string) []string {
	t.Helper()
	var track []traceEvent
	for _, ev := range events {
		if ev.TID == tid && ev.Phase != "M" {
			track = append(track, ev)
		}
	}
	var root *traceEvent
	for i, ev := range track {
		if ev.Phase != "X" {
			continue
		}
		if _, ok := ev.Args["parent"]; !ok {
			if root != nil {
				t.Fatalf("track %d has two root slices: %+v and %+v", tid, *root, ev)
			}
			root = &track[i]
		}
	}
	if root == nil || root.Name != "invocation" {
		t.Fatalf("track %d has no root invocation slice: %+v", tid, track)
	}
	parents := map[any]bool{root.Args["span"]: true}
	var slices, instants []string
	explained := false
	for _, ev := range track {
		if ev.Phase == "X" && ev.Name != "invocation" {
			parents[ev.Args["span"]] = true
			slices = append(slices, ev.Name)
		}
	}
	const eps = 1e-3 // µs
	for _, ev := range track {
		if ev.Args["span"] == root.Args["span"] {
			continue
		}
		if ev.Phase == "X" && ev.Args["parent"] != root.Args["span"] {
			t.Errorf("track %d: slice %s parented to %v, want the root %v", tid, ev.Name, ev.Args["parent"], root.Args["span"])
		}
		if !parents[ev.Args["parent"]] {
			t.Errorf("track %d: %s parented to %v, outside the track", tid, ev.Name, ev.Args["parent"])
		}
		if ev.TS < root.TS-eps || ev.TS+ev.Dur > root.TS+root.Dur+eps {
			t.Errorf("track %d: %s [%v, %v] lies outside the root [%v, %v]",
				tid, ev.Name, ev.TS, ev.TS+ev.Dur, root.TS, root.TS+root.Dur)
		}
		switch ev.Phase {
		case "i":
			instants = append(instants, ev.Name)
		case "X":
			if _, ok := ev.Args["explain"]; ok {
				explained = ev.Name == "alpha-search"
			}
		}
	}
	if explained != searched {
		t.Errorf("track %d: alpha-search with explain args = %v, want %v (slices %v)", tid, explained, searched, slices)
	}
	sort.Strings(instants)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(instants, ",") != strings.Join(want, ",") {
		t.Errorf("track %d: instants %v, want %v", tid, instants, want)
	}
	return slices
}

// TestInvocationRecordPaths drives each path an invocation's record
// can take once through the public API and checks the exported trace
// of the invocation: the trace invariant (checkTrack), the instants
// the path produces, and, for the revoked invocation, the one
// watchdog-stall instant on track 0.
func TestInvocationRecordPaths(t *testing.T) {
	const n = 200000
	body := func(int) {}
	fastRetry := RetryPolicy{MaxAttempts: 1}
	for _, tc := range []struct {
		name     string
		cfg      Config
		faults   func(*FaultPlan)
		run      func(t *testing.T, rt *Runtime) uint64 // returns the invocation to check
		searched bool
		instants []string
		slices   []string
		stalls   int
	}{
		{
			name: "profiled",
			run: func(t *testing.T, rt *Runtime) uint64 {
				return mustRun(t, rt, context.Background(), computeKernel("path", body), n)
			},
			searched: true,
			slices:   []string{"admission-wait", "profile", "alpha-search", "execute", "functional"},
		},
		{
			name: "table-replay",
			run: func(t *testing.T, rt *Runtime) uint64 {
				mustRun(t, rt, context.Background(), computeKernel("path", body), n)
				return mustRun(t, rt, context.Background(), computeKernel("path", body), n)
			},
			slices: []string{"admission-wait", "execute", "functional"},
		},
		{
			name: "small-n",
			run: func(t *testing.T, rt *Runtime) uint64 {
				return mustRun(t, rt, context.Background(), computeKernel("path", body), 16)
			},
			instants: []string{"small-n-cpu-only"},
			slices:   []string{"admission-wait", "functional"},
		},
		{
			name: "gpu-busy-upfront",
			run: func(t *testing.T, rt *Runtime) uint64 {
				rt.Platform().SetGPUBusy(true)
				defer rt.Platform().SetGPUBusy(false)
				return mustRun(t, rt, context.Background(), computeKernel("path", body), n)
			},
			instants: []string{"gpu-busy-upfront"},
			slices:   []string{"admission-wait", "functional"},
		},
		{
			name:   "busy-mid-run",
			cfg:    Config{GPURetry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}},
			faults: func(p *FaultPlan) { p.GPUBusyFor(2) },
			run: func(t *testing.T, rt *Runtime) uint64 {
				return mustRun(t, rt, context.Background(), computeKernel("path", body), n)
			},
			instants: []string{"gpu-retry", "gpu-retry", "cpu-fallback"},
			slices:   []string{"admission-wait", "profile", "functional"},
		},
		{
			name:   "breaker-suppressed",
			cfg:    Config{BreakerThreshold: 1, BreakerProbeAfter: 100, GPURetry: fastRetry},
			faults: func(p *FaultPlan) { p.GPUBusyFor(1) },
			run: func(t *testing.T, rt *Runtime) uint64 {
				mustRun(t, rt, context.Background(), computeKernel("path", body), n)
				return mustRun(t, rt, context.Background(), computeKernel("path", body), n)
			},
			instants: []string{"breaker-suppressed"},
			slices:   []string{"admission-wait", "functional"},
		},
		{
			name:   "quarantined",
			cfg:    Config{Robustness: Robustness{ValidateProfiles: true}},
			faults: func(p *FaultPlan) { p.CorruptHWC(4) },
			run: func(t *testing.T, rt *Runtime) uint64 {
				return mustRun(t, rt, context.Background(), computeKernel("path", body), n)
			},
			instants: []string{"profile-quarantined"},
			slices:   []string{"admission-wait", "profile", "execute", "functional"},
		},
		{
			name:   "gpu-timeout",
			cfg:    Config{GPUDispatchTimeout: 20 * time.Millisecond},
			faults: func(p *FaultPlan) { p.HangKernels(1) },
			run: func(t *testing.T, rt *Runtime) uint64 {
				return mustRun(t, rt, context.Background(), computeKernel("path", body), n)
			},
			searched: true,
			instants: []string{"functional-fallback"},
			slices:   []string{"admission-wait", "profile", "alpha-search", "execute", "functional"},
		},
		{
			name: "shed",
			cfg: Config{Admission: AdmissionPolicy{
				TenantQuotas: map[string]TenantQuota{"acme": {Rate: 0.0001, Burst: 1}},
			}},
			run: func(t *testing.T, rt *Runtime) uint64 {
				ctx := WithTenant(context.Background(), "acme")
				mustRun(t, rt, ctx, computeKernel("path", body), n)
				var ov *ErrOverloaded
				if _, err := rt.ParallelForCtx(ctx, computeKernel("path", body), n); !errors.As(err, &ov) {
					t.Fatalf("over-quota invocation returned %v, want *ErrOverloaded", err)
				}
				return 2
			},
			slices: []string{"admission-wait"},
		},
		{
			name:   "revoked",
			cfg:    Config{Admission: AdmissionPolicy{Watchdog: 40 * time.Millisecond}},
			faults: func(p *FaultPlan) { p.HoldAdmission(10*time.Second, 1) },
			run: func(t *testing.T, rt *Runtime) uint64 {
				if _, err := rt.ParallelFor(computeKernel("path", body), n); !errors.Is(err, ErrAdmissionRevoked) {
					t.Fatalf("held invocation returned %v, want ErrAdmissionRevoked", err)
				}
				return 1
			},
			instants: []string{"admission-hold"},
			slices:   []string{"admission-wait"},
			stalls:   1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			observer := NewObserver(ObserverOptions{})
			cfg := tc.cfg
			cfg.Observer = observer
			plan := NewFaultPlan(11)
			if tc.faults != nil {
				tc.faults(plan)
			}
			rt := robustRuntime(t, plan, cfg)
			defer rt.Close()
			id := tc.run(t, rt)
			events := observerTrace(t, observer)
			slices := checkTrack(t, events, id, tc.searched, tc.instants)
			if !reflect.DeepEqual(slices, tc.slices) {
				t.Errorf("slices %v, want %v", slices, tc.slices)
			}
			stalls := 0
			for _, ev := range events {
				if ev.Name == "watchdog-stall" && ev.TID == 0 && ev.Phase == "i" {
					stalls++
				}
			}
			if stalls != tc.stalls {
				t.Errorf("%d watchdog-stall instants, want %d", stalls, tc.stalls)
			}
		})
	}
}

func mustRun(t *testing.T, rt *Runtime, ctx context.Context, k Kernel, n int) uint64 {
	t.Helper()
	rep, err := rt.ParallelForCtx(ctx, k, n)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.ReleaseReport(rep)
	return rep.InvocationID
}

// TestObserverLeavesReportsUnchanged runs the same seeded invocation
// sequence — profiles, table replays, small-N runs and busy-GPU
// fallbacks over three kernels — on two runtimes, one observed and one
// not, and requires equal Reports: observing an invocation must not
// change what it does.
func TestObserverLeavesReportsUnchanged(t *testing.T) {
	run := func(observer *Observer) []Report {
		plan := NewFaultPlan(21)
		rt := robustRuntime(t, plan, Config{
			Observer:         observer,
			ReprofileEvery:   3,
			BreakerThreshold: 4,
			GPURetry:         RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
			Robustness:       Robustness{Meter: true, ValidateProfiles: true},
		})
		defer rt.Close()
		kernels := []Kernel{
			computeKernel("eq-compute", func(int) {}),
			memKernel(func(int) {}),
			computeKernel("eq-nobody", nil),
		}
		var out []Report
		for i := 0; i < 30; i++ {
			n := 200000
			switch {
			case i%7 == 3:
				n = 64
			case i == 4 || i == 16:
				plan.GPUBusyFor(2)
			case i == 9:
				plan.FailEnqueues(2)
			}
			rep, err := rt.ParallelFor(kernels[i%len(kernels)], n)
			if err != nil {
				t.Fatal(err)
			}
			r := *rep
			r.Started, r.Finished = time.Time{}, time.Time{}
			out = append(out, r)
			rt.ReleaseReport(rep)
		}
		return out
	}
	observed := NewObserver(ObserverOptions{})
	with, without := run(observed), run(nil)
	for i := range with {
		a, b := with[i], without[i]
		if fmt.Sprint(a.FallbackError) != fmt.Sprint(b.FallbackError) {
			t.Errorf("invocation %d: FallbackError %v observed, %v unobserved", i, a.FallbackError, b.FallbackError)
		}
		a.FallbackError, b.FallbackError = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("invocation %d differs:\nobserved   %+v\nunobserved %+v", i, a, b)
		}
		if math.IsNaN(a.EnergyJ) {
			t.Errorf("invocation %d: NaN energy", i)
		}
	}
	fallbacks := map[FallbackReason]int{}
	for _, r := range with {
		fallbacks[r.FallbackReason]++
	}
	if fallbacks[FallbackGPUBusy] == 0 || fallbacks[FallbackEnqueueError] == 0 {
		t.Errorf("fallbacks taken %v, want gpu-busy and enqueue-error among them", fallbacks)
	}
	if got := observed.inner.Ring().Total(); got != uint64(len(with)) {
		t.Errorf("observer recorded %d invocations, want %d", got, len(with))
	}
}
