package robust

import (
	"math"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/msr"
)

type fakeSource struct{ j float64 }

func (f *fakeSource) TotalEnergy() float64 { return f.j }

func testConfig() MeterConfig {
	return MeterConfig{MaxPlausiblePowerW: 200, Window: 5, HampelK: 8, StuckReads: 4}
}

func newTestMeter() (*fakeSource, *EnergyMeter) {
	src := &fakeSource{}
	m := msr.New(src, msr.DefaultUnitJoules)
	return src, NewEnergyMeter(m, testConfig())
}

// burn advances the source by p watts over d and measures.
func burn(src *fakeSource, em *EnergyMeter, p float64, d time.Duration) (float64, bool) {
	src.j += p * d.Seconds()
	return em.Measure(d, 0)
}

func TestMeterAcceptsPlausiblePower(t *testing.T) {
	src, em := newTestMeter()
	for i := 0; i < 10; i++ {
		j, ok := burn(src, em, 50, 100*time.Millisecond)
		if !ok {
			t.Fatalf("sample %d rejected", i)
		}
		if math.Abs(j-5) > 1e-3 {
			t.Fatalf("sample %d = %v J, want 5", i, j)
		}
	}
	s := em.Stats()
	if s.Accepted != 10 || s.Rejected != 0 {
		t.Errorf("stats = %+v, want 10 accepted, 0 rejected", s)
	}
	if s.Stuck {
		t.Error("healthy meter reports stuck")
	}
}

func TestMeterRejectsImplausiblePower(t *testing.T) {
	src, em := newTestMeter()
	burn(src, em, 50, 100*time.Millisecond)
	// 1000 W is over the 200 W bound: reject, substitute predicted 60 W.
	src.j += 1000 * 0.1
	j, ok := em.Measure(100*time.Millisecond, 60)
	if ok {
		t.Fatal("1000 W sample accepted")
	}
	if math.Abs(j-6) > 1e-6 {
		t.Errorf("substituted = %v J, want predicted 60 W × 0.1 s = 6", j)
	}
	s := em.Stats()
	if s.Rejected != 1 || s.Substituted != 1 {
		t.Errorf("stats = %+v, want 1 rejected, 1 substituted", s)
	}
}

func TestMeterSubstitutesWindowMedianWithoutPrediction(t *testing.T) {
	src, em := newTestMeter()
	for i := 0; i < 5; i++ {
		burn(src, em, 50, 100*time.Millisecond)
	}
	src.j += 1000 * 0.1
	j, ok := em.Measure(100*time.Millisecond, 0) // no predicted power
	if ok {
		t.Fatal("1000 W sample accepted")
	}
	if math.Abs(j-5) > 1e-3 {
		t.Errorf("substituted = %v J, want window median 50 W × 0.1 s = 5", j)
	}
}

func TestMeterHampelRejectsOutlierWithinPowerBound(t *testing.T) {
	src, em := newTestMeter()
	// Fill the window at ~10 W.
	for i := 0; i < 5; i++ {
		burn(src, em, 10, 100*time.Millisecond)
	}
	// 150 W is under MaxPlausiblePower but 15× the window median:
	// |150-10| = 140 > 8 × max(0, 0.25×10) = 20 → Hampel rejects.
	j, ok := burn(src, em, 150, 100*time.Millisecond)
	if ok {
		t.Fatal("15× outlier accepted")
	}
	if math.Abs(j-1) > 1e-3 {
		t.Errorf("substituted = %v J, want median 10 W × 0.1 s = 1", j)
	}
}

// With a full window, judging a sample copies nothing: the accept path
// (Hampel check, push) and the reject path (Hampel check, median
// substitute) both sort in the meter's own scratch buffer.
func TestMeasureAllocatesNothing(t *testing.T) {
	src, em := newTestMeter()
	for i := 0; i < 5; i++ {
		burn(src, em, 10, 100*time.Millisecond)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := burn(src, em, 10, 100*time.Millisecond); !ok {
			t.Fatal("in-window sample rejected")
		}
	}); a != 0 {
		t.Errorf("accept path: %v allocs per Measure, want 0", a)
	}
	before := em.Stats().Substituted
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := burn(src, em, 150, 100*time.Millisecond); ok {
			t.Fatal("15x outlier accepted")
		}
	}); a != 0 {
		t.Errorf("reject path: %v allocs per Measure, want 0", a)
	}
	if em.Stats().Substituted == before {
		t.Error("reject path substituted nothing")
	}
}

func TestMeterToleratesGradualTransition(t *testing.T) {
	src, em := newTestMeter()
	// A legitimate phase change: power doubles. With the MAD floored at
	// 25% of the median, 2× the median stays inside K=8 floors.
	for i := 0; i < 5; i++ {
		burn(src, em, 20, 100*time.Millisecond)
	}
	if _, ok := burn(src, em, 40, 100*time.Millisecond); !ok {
		t.Error("2× power transition rejected; filter too tight")
	}
}

func TestMeterRejectsWrapHorizonInterval(t *testing.T) {
	src := &fakeSource{}
	m := msr.New(src, msr.DefaultUnitJoules)
	em := NewEnergyMeter(m, testConfig())
	// horizon = 2^32/65536 = 65536 J; at 200 W max the bound is 327.68 s.
	d := 400 * time.Second
	src.j += 100 * d.Seconds()
	j, ok := em.Measure(d, 75)
	if ok {
		t.Fatal("interval beyond the wrap-detectability bound accepted")
	}
	if math.Abs(j-75*d.Seconds()) > 1e-6 {
		t.Errorf("substituted = %v J, want 75 W × %v s", j, d.Seconds())
	}
	if em.Stats().Ambiguous != 1 {
		t.Errorf("Ambiguous = %d, want 1", em.Stats().Ambiguous)
	}
}

func TestMeterRejectsTrueMultiWrap(t *testing.T) {
	src := &fakeSource{}
	m := msr.New(src, msr.DefaultUnitJoules)
	em := NewEnergyMeter(m, testConfig())
	src.j += 2.5 * m.WrapHorizonJoules()
	if _, ok := em.Measure(time.Second, 0); ok {
		t.Fatal("2.5-wrap gap accepted")
	}
	if em.Stats().Ambiguous != 1 {
		t.Errorf("Ambiguous = %d, want 1", em.Stats().Ambiguous)
	}
}

func TestMeterDetectsStuckCounter(t *testing.T) {
	src, em := newTestMeter()
	burn(src, em, 50, 100*time.Millisecond)
	// Counter stops moving while time advances.
	for i := 0; i < 3; i++ {
		em.Measure(100*time.Millisecond, 40)
	}
	if em.Stats().Stuck {
		t.Fatal("stuck declared before StuckReads identical reads")
	}
	j, ok := em.Measure(100*time.Millisecond, 40)
	if ok {
		t.Fatal("4th identical read accepted")
	}
	if math.Abs(j-4) > 1e-6 {
		t.Errorf("substituted = %v J, want predicted 40 W × 0.1 s = 4", j)
	}
	if !em.Stats().Stuck {
		t.Error("Stuck not reported after 4 identical advancing-time reads")
	}
	// Counter recovers: stuck clears and samples are accepted again.
	if _, ok := burn(src, em, 50, 100*time.Millisecond); !ok {
		t.Error("sample after recovery rejected")
	}
	if em.Stats().Stuck {
		t.Error("Stuck still reported after counter resumed")
	}
}

func TestMeterZeroDurationNonzeroDelta(t *testing.T) {
	src, em := newTestMeter()
	src.j += 10
	if j, ok := em.Measure(0, 50); ok || j != 0 {
		t.Errorf("zero-interval energy jump: j=%v ok=%v, want 0,false", j, ok)
	}
	// Zero delta over zero time is fine (and contributes nothing).
	if j, ok := em.Measure(0, 50); !ok || j != 0 {
		t.Errorf("zero-interval zero-delta: j=%v ok=%v, want 0,true", j, ok)
	}
}

func TestMeterResyncDiscardsForeignInterval(t *testing.T) {
	src, em := newTestMeter()
	burn(src, em, 50, 100*time.Millisecond)
	// Another tenant burned 1 kJ between invocations.
	src.j += 1000
	em.Resync()
	if j, ok := burn(src, em, 50, 100*time.Millisecond); !ok || math.Abs(j-5) > 1e-3 {
		t.Errorf("post-Resync sample j=%v ok=%v, want 5,true", j, ok)
	}
}

func TestNewEnergyMeterValidatesConfig(t *testing.T) {
	src := &fakeSource{}
	m := msr.New(src, msr.DefaultUnitJoules)
	for _, cfg := range []MeterConfig{
		{},
		{MaxPlausiblePowerW: 100},
		{MaxPlausiblePowerW: 100, Window: 5},
		{MaxPlausiblePowerW: 100, Window: 5, HampelK: 8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v: expected panic", cfg)
				}
			}()
			NewEnergyMeter(m, cfg)
		}()
	}
}

func TestHealthStringsAndWorse(t *testing.T) {
	if Healthy.String() != "healthy" || Degraded.String() != "degraded" || Failed.String() != "failed" {
		t.Error("Health strings wrong")
	}
	if Healthy.Worse(Degraded) != Degraded || Failed.Worse(Degraded) != Failed {
		t.Error("Worse ordering wrong")
	}
}
