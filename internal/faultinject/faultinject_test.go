package faultinject

import (
	"sync"
	"testing"
	"time"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	for f := Fault(0); f < NumFaults; f++ {
		if param, ok := p.Take(f); ok || param != 0 {
			t.Errorf("nil plan delivered fault %d (param %v)", f, param)
		}
	}
	if s := p.Stats(); s != (Stats{}) {
		t.Errorf("nil plan stats = %+v", s)
	}
}

func TestScriptedCountsConsumeFIFO(t *testing.T) {
	p := New(1)
	p.Script(GPUBusy, 2, 0)
	p.Script(EnqueueError, 1, 0)
	p.Script(KernelHang, 1, 0)
	p.Script(SlowGPU, 1, 4)

	taken := func(f Fault) bool {
		_, ok := p.Take(f)
		return ok
	}
	if !taken(GPUBusy) || !taken(GPUBusy) {
		t.Fatal("first two dispatches should observe busy")
	}
	if taken(GPUBusy) {
		t.Fatal("third dispatch should not be busy")
	}
	if !taken(EnqueueError) || taken(EnqueueError) {
		t.Fatal("exactly one enqueue error expected")
	}
	if !taken(KernelHang) || taken(KernelHang) {
		t.Fatal("exactly one hang expected")
	}
	if f, ok := p.Take(SlowGPU); !ok || f != 4 {
		t.Fatalf("slow factor = %v, %v; want 4, true", f, ok)
	}
	if f, ok := p.Take(SlowGPU); ok {
		t.Fatalf("second slow factor = %v, want none", f)
	}
	var want Stats
	want.Delivered[GPUBusy] = 2
	want.Delivered[KernelHang] = 1
	want.Delivered[EnqueueError] = 1
	want.Delivered[SlowGPU] = 1
	if got := p.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

// A parameter a fault cannot use scripts nothing; the hold duration
// survives the round trip through the parameter exactly.
func TestScriptRejectsInvalidParams(t *testing.T) {
	p := New(1)
	p.Script(SlowGPU, 1, 1)
	p.Script(ProfileLie, 1, 1)
	p.Script(ProfileLie, 1, 0)
	p.Script(WrapGap, 1, 0)
	p.Script(AdmissionHold, 1, 0)
	for _, f := range []Fault{SlowGPU, ProfileLie, WrapGap, AdmissionHold} {
		if param, ok := p.Take(f); ok {
			t.Errorf("fault %d delivered with invalid param %v", f, param)
		}
	}
	d := 1234567891 * time.Nanosecond
	p.Script(AdmissionHold, 1, float64(d))
	if ns, ok := p.Take(AdmissionHold); !ok || time.Duration(ns) != d {
		t.Errorf("hold = %v, %v; want %v, true", time.Duration(ns), ok, d)
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	draw := func() []bool {
		p := New(42)
		p.SetProb(EnqueueError, 0.5)
		out := make([]bool, 64)
		for i := range out {
			_, out[i] = p.Take(EnqueueError)
		}
		return out
	}
	a, b := draw(), draw()
	anyTrue := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		anyTrue = anyTrue || a[i]
	}
	if !anyTrue {
		t.Error("p=0.5 over 64 draws delivered no fault")
	}
}

func TestReleaseHangsIdempotent(t *testing.T) {
	p := New(0)
	ch := p.HangReleased()
	p.ReleaseHangs()
	p.ReleaseHangs() // second release must not panic on double close
	select {
	case <-ch:
	default:
		t.Error("HangReleased channel not closed after ReleaseHangs")
	}
}

func TestConcurrentTakes(t *testing.T) {
	p := New(7)
	p.Script(GPUBusy, 100, 0)
	var wg sync.WaitGroup
	hits := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, ok := p.Take(GPUBusy); ok {
					hits[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, h := range hits {
		total += h
	}
	if total != 100 {
		t.Errorf("scripted faults delivered %d times, want exactly 100", total)
	}
}
