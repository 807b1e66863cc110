package obs

import (
	"encoding/json"
	"io"
	"math"
	"time"
)

// chromeEvent is one record of the Chrome trace-event format (the
// JSON Perfetto and chrome://tracing load). Timestamps are microseconds
// relative to the earliest span so the numbers stay small.
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

// WriteChromeTrace renders spans as Chrome trace-event JSON. Each
// invocation becomes its own thread track (tid = invocation id), so a
// multi-tenant run renders as a timeline of overlapping invocations;
// spans nest by time within a track, and the alpha-search span's args
// carry the full Explain record (measured R_C/R_G, category, curve,
// and the objective at every grid point, rebuilt here by
// Explain.Grid from the recorded search inputs).
func WriteChromeTrace(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, 0, len(spans)+1)
	events = append(events, chromeEvent{
		Name:  "process_name",
		Phase: "M",
		PID:   1,
		Args:  map[string]any{"name": "eas"},
	})
	var base time.Time
	for _, sp := range spans {
		if base.IsZero() || sp.Start.Before(base) {
			base = sp.Start
		}
	}
	for _, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name,
			Cat:  "eas",
			TS:   micros(sp.Start.Sub(base)),
			PID:  1,
			TID:  sp.Invocation,
			Args: spanArgs(sp),
		}
		if sp.Kind == KindInstant {
			ev.Phase = "i"
			ev.Scope = "t"
		} else {
			ev.Phase = "X"
			d := micros(sp.End.Sub(sp.Start))
			ev.Dur = &d
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

func micros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}

func spanArgs(sp Span) map[string]any {
	args := make(map[string]any, sp.Attrs.Len()+4)
	if sp.Kernel != "" {
		args["kernel"] = sp.Kernel
	}
	args["invocation"] = sp.Invocation
	args["span"] = sp.ID
	if sp.Parent != 0 {
		args["parent"] = sp.Parent
	}
	for _, a := range sp.Attrs.List() {
		if a.IsNum {
			args[a.Key] = jsonSafe(a.Num)
		} else {
			args[a.Key] = a.Str
		}
	}
	if sp.Explain != nil {
		args["explain"] = explainArgs(sp.Explain)
	}
	return args
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
