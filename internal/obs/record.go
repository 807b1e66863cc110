package obs

import "time"

// Phase indexes the timed phases of one invocation.
type Phase uint8

const (
	// PhaseAdmit is the wait at the admission gate.
	PhaseAdmit Phase = iota
	// PhaseProfile is online profiling (Fig. 7 steps 11-22).
	PhaseProfile
	// PhaseSearch is the α grid search over the profile.
	PhaseSearch
	// PhaseExecute is the simulated execution of the remainder.
	PhaseExecute
	// PhaseFunctional is the functional execution of the kernel body.
	PhaseFunctional
	// NumPhases is the number of phases an Invocation times.
	NumPhases
)

// phaseNames are the trace slice names the phases export as.
var phaseNames = [NumPhases]string{"admission-wait", "profile", "alpha-search", "execute", "functional"}

// String returns the phase's trace slice name.
func (p Phase) String() string { return phaseNames[p] }

// PhaseTime is one phase's wall-clock interval: its start as an offset
// from the invocation's start, and its duration.
type PhaseTime struct {
	Start, Dur time.Duration
}

// Invocation is the one record of one observed invocation. The runtime
// fills it in on the invocation's own stack as the invocation runs and
// hands it to Observer.Finish once; the ring keeps a copy, and the
// Chrome trace, /metrics and the flight recorder all derive from it.
// It holds no pointers beyond its strings and the Explain's source, so
// keeping one costs a fixed few hundred bytes.
//
// Every method is nil-safe, so instrumented code holds a possibly-nil
// *Invocation (nil when unobserved) and calls through unconditionally.
type Invocation struct {
	// ID is the invocation id (the trace track); Kernel, Tenant and
	// Class name what ran for whom. Start is the wall-clock start and
	// Wall the latency, stamped by Finish.
	ID                    uint64
	Kernel, Tenant, Class string
	Start                 time.Time
	Wall                  time.Duration

	// Phases times each phase that ran; ran has bit p set once phase p
	// has ended.
	Phases [NumPhases]PhaseTime
	ran    uint8

	// ProfileSteps counts the profiling repetitions; RC and RG are the
	// merged profile's throughputs (items/s).
	ProfileSteps int
	RC, RG       float64
	// Explain is the decision audit, valid when PhaseSearch ran.
	Explain Explain

	// Alpha is the applied offload ratio; Category the resolved
	// workload class key ("" when nothing was decided).
	Alpha    float64
	Category string
	// Profiled marks an invocation that ran online profiling; FastPath
	// one whose fresh table record skipped a periodic re-profile.
	Profiled, FastPath bool

	// Duration and ProfileDuration are the simulated execution and
	// profiling times; EnergyJ the simulated package energy, split by
	// RAPL domain in CPUEnergyJ, GPUEnergyJ and DRAMEnergyJ.
	Duration, ProfileDuration           time.Duration
	EnergyJ                             float64
	CPUEnergyJ, GPUEnergyJ, DRAMEnergyJ float64
	// MeterRejected counts robust-meter sample rejections.
	MeterRejected int

	// Retries counts busy simulated GPU dispatches, EnqueueRetries busy
	// functional enqueues.
	Retries, EnqueueRetries int
	// Exit names the CPU-only exit taken before any decision:
	// "gpu-busy-upfront", "small-n-cpu-only" or "breaker-suppressed".
	Exit string
	// Fallback is the fallback reason key ("" when the run went as
	// scheduled); FallbackItems counts the items it moved to the CPU.
	Fallback      string
	FallbackItems float64
	// Quarantined and Sanitized flag profile-validation outcomes;
	// QuarantineCause is why the profile was quarantined.
	Quarantined, Sanitized bool
	QuarantineCause        string
	// Hold is a scripted admission hold (a stall record's held time).
	Hold time.Duration
	// Err is the error text of an invocation that failed; a failed
	// invocation is traced but not counted in the metrics.
	Err string

	// Stall marks the one kind of entry that is not an invocation: a
	// watchdog force-release of the admission gate, carrying the
	// wedged Tenant and the Hold time.
	Stall bool
}

// Begin marks the start of phase p.
func (r *Invocation) Begin(p Phase) {
	if r != nil {
		r.Phases[p].Start = time.Since(r.Start)
	}
}

// End closes phase p, begun with Begin.
func (r *Invocation) End(p Phase) {
	if r != nil {
		r.Phases[p].Dur = time.Since(r.Start) - r.Phases[p].Start
		r.ran |= 1 << p
	}
}

// Ran reports whether phase p ran to its End.
func (r *Invocation) Ran(p Phase) bool { return r != nil && r.ran&(1<<p) != 0 }

// Fail records err as the invocation's failure (nil records nothing).
func (r *Invocation) Fail(err error) {
	if r != nil && err != nil {
		r.Err = err.Error()
	}
}
