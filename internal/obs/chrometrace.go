package obs

import (
	"encoding/json"
	"io"
	"math"
	"time"
)

// chromeEvent is one record of the Chrome trace-event format (the
// JSON Perfetto and chrome://tracing load). Timestamps are microseconds
// relative to the earliest record so the numbers stay small.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders invocation records as Chrome trace-event
// JSON. Each invocation becomes its own thread track (tid = invocation
// id): one "invocation" slice with no parent, and under it one slice
// per phase that ran (admission-wait, profile, alpha-search, execute,
// functional), each naming its parent in args.span/args.parent. The
// record's rare-path outcomes become instants: the CPU-only exits,
// gpu-retry, cpu-fallback, profile-quarantined and admission-hold
// under the root, enqueue-retry and functional-fallback under the
// functional slice. The alpha-search slice's args carry the full
// Explain record (measured R_C/R_G, category, curve, and the objective
// at every grid point, rebuilt here by Explain.Grid from the recorded
// search inputs). A record that is not an invocation (a watchdog
// stall, a breaker transition, a WAL error) is one instant on track 0,
// named by its kind.
func WriteChromeTrace(w io.Writer, recs []Invocation) error {
	events := make([]chromeEvent, 0, 1+4*len(recs))
	events = append(events, chromeEvent{
		Name:  "process_name",
		Phase: "M",
		PID:   1,
		Args:  map[string]any{"name": "eas"},
	})
	var base time.Time
	for i := range recs {
		if base.IsZero() || recs[i].Start.Before(base) {
			base = recs[i].Start
		}
	}
	var span uint64
	for i := range recs {
		events = recs[i].appendEvents(events, base, &span)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// appendEvents expands one record into its trace events, numbering
// their spans from *span on.
func (r *Invocation) appendEvents(events []chromeEvent, base time.Time, span *uint64) []chromeEvent {
	at := func(off time.Duration) float64 { return micros(r.Start.Sub(base) + off) }
	args := func(parent uint64) map[string]any {
		*span++
		a := map[string]any{"invocation": r.ID, "span": *span}
		if r.Kernel != "" {
			a["kernel"] = r.Kernel
		}
		if parent != 0 {
			a["parent"] = parent
		}
		return a
	}
	slice := func(name string, parent uint64, start, dur time.Duration) (map[string]any, uint64) {
		a := args(parent)
		d := micros(dur)
		events = append(events, chromeEvent{Name: name, Cat: "eas", Phase: "X", TS: at(start), Dur: &d, PID: 1, TID: r.ID, Args: a})
		return a, *span
	}
	instant := func(name string, parent uint64, off time.Duration) map[string]any {
		a := args(parent)
		events = append(events, chromeEvent{Name: name, Cat: "eas", Phase: "i", Scope: "t", TS: at(off), PID: 1, TID: r.ID, Args: a})
		return a
	}

	if r.Kind != KindInvocation {
		a := instant(r.Kind.String(), 0, 0)
		switch r.Kind {
		case KindWatchdogStall:
			a["kernel"] = r.Tenant
			a["tenant"] = r.Tenant
			a["held_ms"] = float64(r.Hold.Milliseconds())
		case KindBreaker:
			a["state"] = breakerStateName(r.Breaker)
		}
		return events
	}
	a, root := slice("invocation", 0, 0, r.Wall)
	if r.Err != "" {
		a["error"] = r.Err
	} else {
		a["alpha"] = jsonSafe(r.Alpha)
		a["energy_j"] = jsonSafe(r.EnergyJ)
		a["duration_us"] = float64(r.Duration.Microseconds())
		if r.Fallback != "" {
			a["fallback"] = r.Fallback
		}
	}
	// decided is where the scheduling step ended: the anchor of its
	// instants, which the record keeps as counts and flags.
	var decided time.Duration
	functionalFallback := r.Fallback == "enqueue-error" || r.Fallback == "gpu-timeout"
	var fn uint64
	for p := PhaseAdmit; p < NumPhases; p++ {
		if !r.Ran(p) {
			continue
		}
		pt := r.Phases[p]
		a, id := slice(p.String(), root, pt.Start, pt.Dur)
		switch p {
		case PhaseProfile:
			a["steps"] = float64(r.ProfileSteps)
			a["rc"] = jsonSafe(r.RC)
			a["rg"] = jsonSafe(r.RG)
		case PhaseSearch:
			a["explain"] = explainArgs(&r.Explain)
		case PhaseFunctional:
			fn = id
			a["reexecuted_items"] = 0.0
			if functionalFallback {
				a["reexecuted_items"] = jsonSafe(r.FallbackItems)
			}
		}
		if p != PhaseFunctional {
			decided = max(decided, pt.Start+pt.Dur)
		}
	}
	if r.Hold > 0 {
		admitted := r.Phases[PhaseAdmit].Start + r.Phases[PhaseAdmit].Dur
		instant("admission-hold", root, admitted)["hold_ms"] = float64(r.Hold.Milliseconds())
	}
	if r.Exit != "" {
		instant(r.Exit, root, decided)
	}
	for i := 1; i <= r.Retries; i++ {
		instant("gpu-retry", root, decided)["attempt"] = float64(i)
	}
	if r.Quarantined {
		instant("profile-quarantined", root, decided)["cause"] = r.QuarantineCause
	}
	if r.Fallback == "gpu-busy" && r.Exit == "" {
		instant("cpu-fallback", root, decided)["items"] = jsonSafe(r.FallbackItems)
	}
	if fn != 0 {
		pt := r.Phases[PhaseFunctional]
		for i := 1; i <= r.EnqueueRetries; i++ {
			instant("enqueue-retry", fn, pt.Start)["attempt"] = float64(i)
		}
		if functionalFallback {
			a := instant("functional-fallback", fn, pt.Start+pt.Dur)
			a["reason"] = r.Fallback
			a["items"] = jsonSafe(r.FallbackItems)
		}
	}
	return events
}

func micros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}

// explainArgs flattens an Explain into JSON-encodable args, rebuilding
// its objective grid. Grid objectives can legitimately be +Inf (offloading to a device with no
// measured throughput); encoding/json rejects non-finite floats, so
// jsonSafe renders them as strings.
func explainArgs(ex *Explain) map[string]any {
	points := ex.Grid()
	grid := make([]map[string]any, len(points))
	for i, g := range points {
		grid[i] = map[string]any{
			"alpha":     jsonSafe(g.Alpha),
			"objective": jsonSafe(g.Objective),
		}
	}
	return map[string]any{
		"rc":         jsonSafe(ex.RC),
		"rg":         jsonSafe(ex.RG),
		"category":   ex.Category,
		"curve":      ex.CurveID,
		"alpha_step": jsonSafe(ex.AlphaStep),
		"grid":       grid,
		"alpha":      jsonSafe(ex.Alpha),
		"objective":  jsonSafe(ex.Objective),
	}
}

func jsonSafe(v float64) any {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if math.IsNaN(v) {
		return "NaN"
	}
	return v
}
