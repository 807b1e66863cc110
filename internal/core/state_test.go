package core

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/engine"
	"github.com/hetsched/eas/internal/faultinject"
	"github.com/hetsched/eas/internal/metrics"
	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/statestore"
)

func stateOpts(path string) Options {
	return Options{GrowProfileChunk: true, State: StatePolicy{Path: path, Sync: statestore.SyncAlways}}
}

// TestStateWarmStart is the core of the durability contract: a second
// scheduler opened on the same state path inherits the first one's
// learned α table and skips profiling entirely.
func TestStateWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alpha.state")
	s := newEAS(t, metrics.EDP, stateOpts(path))
	rep, err := s.ParallelFor(compKernel(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Profiled {
		t.Fatal("cold first invocation should profile")
	}
	wantAlpha, ok := s.Alpha("compbench")
	if !ok {
		t.Fatal("no α recorded after profiling")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newEAS(t, metrics.EDP, stateOpts(path))
	rs := s2.StateRecovery()
	if rs.Loaded == 0 || rs.Rejected != 0 || rs.CorruptRecords != 0 {
		t.Fatalf("warm recovery = %+v", rs)
	}
	gotAlpha, ok := s2.Alpha("compbench")
	if !ok || math.Abs(gotAlpha-wantAlpha) > 1e-12 {
		t.Fatalf("recovered α = %v (ok=%v), want %v", gotAlpha, ok, wantAlpha)
	}
	rep2, err := s2.ParallelFor(compKernel(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Profiled {
		t.Error("warm start re-profiled a freshly recovered kernel")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStateRecoveryPreservesStaleness proves timestamps survive the
// restart: a record stale under TableTTL re-profiles exactly as it
// would have without the crash.
func TestStateRecoveryPreservesStaleness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alpha.state")
	s := newEAS(t, metrics.EDP, stateOpts(path))
	if _, err := s.ParallelFor(compKernel(), 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)

	opts := stateOpts(path)
	opts.Decision.TableTTL = 10 * time.Millisecond
	s2 := newEAS(t, metrics.EDP, opts)
	if s2.StateRecovery().Loaded == 0 {
		t.Fatal("recovery loaded nothing")
	}
	rep, err := s2.ParallelFor(compKernel(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Profiled {
		t.Error("TTL-stale recovered record should re-profile, not replay")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStateRecoveryRejectsBadRecords feeds the scheduler a snapshot of
// checksummed-but-nonsensical records: every one must be refused by the
// same evidence gates live accumulation enforces, and must never reach
// the α table.
func TestStateRecoveryRejectsBadRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alpha.state")
	now := time.Now()
	bad := []statestore.Record{
		{Op: statestore.OpFull, Kernel: "nan-alpha", Alpha: math.NaN(), Items: 10, Invocations: 1, Category: 0, At: now},
		{Op: statestore.OpFull, Kernel: "inf-alpha", Alpha: math.Inf(1), Items: 10, Invocations: 1, Category: 0, At: now},
		{Op: statestore.OpFull, Kernel: "big-alpha", Alpha: 1.5, Items: 10, Invocations: 1, Category: 0, At: now},
		{Op: statestore.OpFull, Kernel: "neg-alpha", Alpha: -0.1, Items: 10, Invocations: 1, Category: 0, At: now},
		{Op: statestore.OpFull, Kernel: "zero-items", Alpha: 0.5, Items: 0, Invocations: 1, Category: 0, At: now},
		{Op: statestore.OpFull, Kernel: "neg-items", Alpha: 0.5, Items: -4, Invocations: 1, Category: 0, At: now},
		{Op: statestore.OpFull, Kernel: "no-invocations", Alpha: 0.5, Items: 10, Invocations: 0, Category: 0, At: now},
		{Op: statestore.OpFull, Kernel: "bad-category", Alpha: 0.5, Items: 10, Invocations: 1, Category: 99, At: now},
		{Op: statestore.OpAccum, Kernel: "accum-nan", Alpha: math.NaN(), Items: 10, Category: 0, At: now},
		{Op: statestore.OpAccum, Kernel: "accum-zero-items", Alpha: 0.5, Items: 0, Category: 0, At: now},
	}
	good := statestore.Record{Op: statestore.OpFull, Kernel: "legit", Alpha: 0.5, Items: 10, Invocations: 1, Category: 0, At: now}
	if err := statestore.WriteSnapshotFile(path, append(bad, good)); err != nil {
		t.Fatal(err)
	}

	s := newEAS(t, metrics.EDP, stateOpts(path))
	defer s.Close()
	rs := s.StateRecovery()
	if rs.Loaded != 1 || rs.Rejected != len(bad) {
		t.Errorf("recovery = %d loaded / %d rejected, want 1 / %d", rs.Loaded, rs.Rejected, len(bad))
	}
	if _, ok := s.Alpha("legit"); !ok {
		t.Error("the one sane record was not admitted")
	}
	for _, r := range bad {
		if a, ok := s.Alpha(r.Kernel); ok {
			t.Errorf("rejected record %q reached the table (α=%v)", r.Kernel, a)
		}
	}
}

// TestStateRecoveryClampsFutureTimestamps: evidence "from the future"
// (a clock that jumped backwards between runs) must be admitted as at
// most current — otherwise it would outlive any TTL forever.
func TestStateRecoveryClampsFutureTimestamps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alpha.state")
	future := statestore.Record{
		Op: statestore.OpFull, Kernel: "time-traveler",
		Alpha: 0.5, Items: 10, Invocations: 1, Category: 0,
		At: time.Now().Add(24 * time.Hour),
	}
	if err := statestore.WriteSnapshotFile(path, []statestore.Record{future}); err != nil {
		t.Fatal(err)
	}
	opts := stateOpts(path)
	opts.Decision.TableTTL = 5 * time.Millisecond
	s := newEAS(t, metrics.EDP, opts)
	defer s.Close()
	if s.StateRecovery().Loaded != 1 {
		t.Fatal("future-stamped record should load (clamped), not be rejected")
	}
	time.Sleep(20 * time.Millisecond)
	rep, err := s.ParallelFor(engineKernel("time-traveler"), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Profiled {
		t.Error("clamped timestamp did not age out under TableTTL")
	}
}

// TestStateCompaction drives the WAL past its compaction threshold and
// checks the snapshot absorbs the records while recovery still sees a
// complete table.
func TestStateCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alpha.state")
	opts := stateOpts(path)
	opts.State.CompactEvery = 3
	s := newEAS(t, metrics.EDP, opts)
	for i := 0; i < 10; i++ {
		if _, err := s.ParallelFor(compKernel(), 1e6); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ParallelFor(memKernel(), 2e6); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap, stats, err := statestore.ReadFile(path)
	if err != nil {
		t.Fatalf("compaction never wrote a snapshot: %v", err)
	}
	if stats.SnapshotRecords != 2 || len(snap) != 2 {
		t.Errorf("snapshot holds %d records, want one per kernel", len(snap))
	}

	s2 := newEAS(t, metrics.EDP, opts)
	defer s2.Close()
	rs := s2.StateRecovery()
	if rs.SnapshotRecords != 2 || rs.Loaded < 2 || rs.Rejected != 0 {
		t.Errorf("post-compaction recovery = %+v", rs)
	}
	for _, name := range []string{"compbench", "membench"} {
		if _, ok := s2.Alpha(name); !ok {
			t.Errorf("kernel %q lost across compaction", name)
		}
	}
}

// TestStateWriteFailureDegrades arms a WAL write fault and checks
// persistence turns itself off while scheduling continues untouched.
func TestStateWriteFailureDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alpha.state")
	eng := engine.New(platform.Desktop())
	plan := faultinject.New(1)
	eng.SetFaultPlan(plan)
	s, err := New(eng, desktopModel(t), metrics.EDP, stateOpts(path))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan.Script(faultinject.WALWriteError, 1, 0)
	if _, err := s.ParallelFor(compKernel(), 1e6); err != nil {
		t.Fatalf("scheduling must not fail on a persistence fault: %v", err)
	}
	if !s.StateDisabled() {
		t.Error("write fault did not disable the store")
	}
	// Later invocations still schedule normally.
	rep, err := s.ParallelFor(compKernel(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profiled {
		t.Error("in-memory table lost after persistence degraded")
	}
}

// TestSaveLoadState exercises the manual snapshot escape hatch on a
// scheduler with persistence off.
func TestSaveLoadState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "backup.state")
	s := newEAS(t, metrics.EDP, Options{GrowProfileChunk: true})
	if _, err := s.ParallelFor(compKernel(), 1e6); err != nil {
		t.Fatal(err)
	}
	wantAlpha, _ := s.Alpha("compbench")
	if err := s.SaveState(path); err != nil {
		t.Fatal(err)
	}

	s2 := newEAS(t, metrics.EDP, Options{GrowProfileChunk: true})
	rs, err := s2.LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Loaded != 1 || rs.Rejected != 0 {
		t.Errorf("LoadState = %+v", rs)
	}
	gotAlpha, ok := s2.Alpha("compbench")
	if !ok || gotAlpha != wantAlpha {
		t.Errorf("restored α = %v (ok=%v), want %v", gotAlpha, ok, wantAlpha)
	}
}

// engineKernel builds a compute-bound kernel under an arbitrary name,
// for tests that need a name matching a crafted state record.
func engineKernel(name string) engine.Kernel {
	k := compKernel()
	k.Name = name
	return k
}
