// Package robust is the telemetry-robustness layer: it lets the
// runtime keep making good scheduling decisions when its sensors
// degrade, and fail soft when they die.
//
// Every EAS decision — category classification, P(α) fitting, the α
// search, and the reported E/EDP/ED² — flows from raw telemetry: the
// wrapping 32-bit package-energy MSR, hardware counters, and a tiny
// online profile. On real parts those inputs are noisy, stuck, or
// lost: RAPL reads fail under contention, counters multiplex and drop.
// This package provides the two pieces that sit between raw sensors
// and decisions:
//
//   - EnergyMeter: a skeptical wrapper over the package-energy MSR
//     that samples at bounded intervals (so multi-wrap is detectable),
//     rejects outliers with a Hampel median filter, detects stuck
//     counters, and substitutes the characterized model's predicted
//     power when a sample cannot be trusted — E/EDP reporting degrades
//     gracefully instead of returning garbage; and
//   - Breaker: a closed→open→half-open circuit breaker over GPU
//     dispatch, so a persistently failing device stops costing
//     dispatch+timeout latency on every invocation.
package robust

import (
	"math"
	"sort"
	"time"

	"github.com/hetsched/eas/internal/msr"
)

// Health summarizes how trustworthy an invocation's telemetry was.
type Health int

const (
	// Healthy: every sensor sample was accepted.
	Healthy Health = iota
	// Degraded: some samples were rejected and substituted, but the
	// majority of the measurement is real.
	Degraded
	// Failed: metering is effectively dead (stuck counter, or most
	// samples rejected); reported energy is mostly model-predicted.
	Failed
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Worse returns the more severe of two healths.
func (h Health) Worse(o Health) Health {
	if o > h {
		return o
	}
	return h
}

// MeterConfig tunes an EnergyMeter. The zero value is not usable;
// callers fill the fields (core.Options derives defaults from the
// platform's TDP).
type MeterConfig struct {
	// MaxPlausiblePowerW bounds believable package power. A sample
	// implying more is rejected (multi-wrap, a jumped counter, or
	// noise); it also bounds the sampling interval within which a
	// single wrap is detectable.
	MaxPlausiblePowerW float64
	// Window is the Hampel filter's window of recent accepted power
	// samples (the median-of-N reference).
	Window int
	// HampelK is the outlier threshold in scaled-MAD units. Package
	// power legitimately swings severalfold between phases, so this is
	// deliberately generous; the MAD is floored at 25% of the median
	// so a flat window does not reject routine transitions.
	HampelK float64
	// StuckReads is the number of consecutive identical raw counter
	// reads (while simulated time advances) after which the sensor is
	// declared stuck.
	StuckReads int
}

// MeterStats counts an EnergyMeter's lifetime activity.
type MeterStats struct {
	// Accepted and Rejected count samples by verdict.
	Accepted, Rejected int
	// Substituted counts rejected samples for which a model prediction
	// or window median stood in (the rest degraded to zero energy).
	Substituted int
	// Ambiguous counts wrap-horizon violations among the rejections.
	Ambiguous int
	// Stuck reports whether the sensor currently looks stuck.
	Stuck bool
}

// EnergyMeter is a robust reader of the package-energy MSR. It is not
// safe for concurrent use; the scheduler samples it inside its
// admission critical section.
type EnergyMeter struct {
	meter    *msr.Meter
	horizonJ float64
	cfg      MeterConfig
	window   []float64 // ring of recent accepted power samples (W)
	scratch  []float64 // window-sized buffer the filters sort in place
	wpos     int
	wfull    bool
	lastRaw  uint32
	haveRaw  bool
	stuckRun int
	stats    MeterStats
}

// NewEnergyMeter starts a robust meter over the given MSR. Config
// fields must be positive; the caller applies defaults.
func NewEnergyMeter(m *msr.PackageEnergyStatus, cfg MeterConfig) *EnergyMeter {
	if cfg.MaxPlausiblePowerW <= 0 || cfg.Window <= 0 || cfg.HampelK <= 0 || cfg.StuckReads <= 0 {
		panic("robust: meter config fields must be positive")
	}
	return &EnergyMeter{
		meter:    msr.NewMeter(m),
		horizonJ: m.WrapHorizonJoules(),
		cfg:      cfg,
		window:   make([]float64, cfg.Window),
		scratch:  make([]float64, cfg.Window),
	}
}

// Resync re-reads the counter at an invocation boundary, discarding
// the interval since the previous owner's last sample without judging
// it. Filter state (window, stuck run) survives across invocations.
func (em *EnergyMeter) Resync() {
	em.meter.Resync()
	em.noteRaw(em.meter.Last(), 0)
}

// Measure samples the meter for an interval of simulated duration d
// and returns the energy to account for it. An accepted sample returns
// the measured energy; a rejected one substitutes predictedW×d (the
// characterized model's estimate) when predictedW > 0, else the
// window's median power × d, else 0 — reporting degrades gracefully
// instead of returning garbage. The second result reports acceptance.
func (em *EnergyMeter) Measure(d time.Duration, predictedW float64) (float64, bool) {
	j, err := em.meter.JoulesChecked()
	sec := d.Seconds()
	em.noteRaw(em.meter.Last(), d)

	reject := false
	switch {
	case err != nil:
		// The emulator detected the wrap horizon exactly; on hardware
		// the same condition is inferred from the interval bound below.
		em.stats.Ambiguous++
		reject = true
	case sec <= 0:
		// Monotonic-time guard: no interval, no power — a non-zero
		// delta over zero time is noise or a jumped counter.
		reject = j != 0
	case sec*em.cfg.MaxPlausiblePowerW >= em.horizonJ:
		// The interval is long enough that a full wrap could hide
		// inside it at plausible power: ambiguous by the bound a
		// production reader uses.
		em.stats.Ambiguous++
		reject = true
	default:
		p := j / sec
		if p > em.cfg.MaxPlausiblePowerW {
			reject = true
		} else if em.hampelReject(p) {
			reject = true
		}
	}
	if em.stuckActive() {
		reject = true
	}

	if !reject {
		em.stats.Accepted++
		if sec > 0 {
			em.push(j / sec)
		}
		return j, true
	}
	em.stats.Rejected++
	if sec <= 0 {
		return 0, false
	}
	if predictedW > 0 {
		em.stats.Substituted++
		return predictedW * sec, false
	}
	if med, ok := em.median(); ok {
		em.stats.Substituted++
		return med * sec, false
	}
	return 0, false
}

// Stats returns a snapshot of lifetime counts.
func (em *EnergyMeter) Stats() MeterStats {
	s := em.stats
	s.Stuck = em.stuckActive()
	return s
}

// noteRaw tracks consecutive identical raw counter reads. Identical
// reads across zero elapsed time are expected (back-to-back samples);
// identical reads while the clock advanced mean the sensor latched.
func (em *EnergyMeter) noteRaw(raw uint32, d time.Duration) {
	if em.haveRaw && raw == em.lastRaw {
		if d > 0 {
			em.stuckRun++
		}
	} else {
		em.stuckRun = 0
	}
	em.lastRaw = raw
	em.haveRaw = true
}

func (em *EnergyMeter) stuckActive() bool {
	return em.stuckRun >= em.cfg.StuckReads
}

// push records an accepted power sample into the Hampel window.
func (em *EnergyMeter) push(p float64) {
	em.window[em.wpos] = p
	em.wpos++
	if em.wpos == len(em.window) {
		em.wpos = 0
		em.wfull = true
	}
}

// samples returns the valid window contents.
func (em *EnergyMeter) samples() []float64 {
	if em.wfull {
		return em.window
	}
	return em.window[:em.wpos]
}

// sortedSamples returns the valid window contents sorted, in the
// meter's scratch buffer.
func (em *EnergyMeter) sortedSamples() []float64 {
	tmp := em.scratch[:copy(em.scratch, em.samples())]
	sort.Float64s(tmp)
	return tmp
}

func (em *EnergyMeter) median() (float64, bool) {
	tmp := em.sortedSamples()
	if len(tmp) == 0 {
		return 0, false
	}
	return tmp[len(tmp)/2], true
}

// hampelReject applies the Hampel identifier: reject p when it
// deviates from the window median by more than K scaled MADs. Only a
// full window judges — early samples have no reliable reference.
func (em *EnergyMeter) hampelReject(p float64) bool {
	if !em.wfull {
		return false
	}
	tmp := em.sortedSamples()
	med := tmp[len(tmp)/2]
	for i, v := range tmp {
		tmp[i] = math.Abs(v - med)
	}
	sort.Float64s(tmp)
	scaledMAD := 1.4826 * tmp[len(tmp)/2]
	// Package power legitimately swings with α and workload phase;
	// floor the spread so a flat window tolerates routine transitions.
	if floor := 0.25 * med; scaledMAD < floor {
		scaledMAD = floor
	}
	return math.Abs(p-med) > em.cfg.HampelK*scaledMAD
}
