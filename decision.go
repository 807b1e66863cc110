package eas

import "time"

// DecisionPolicy tunes the fresh-entry fast path (Config.Decision):
// when the runtime may skip the admission-serialized scheduling
// decision — online profiling plus the α search — that a periodic
// re-profile would otherwise pay. The zero value decides every
// invocation on its own. NewRuntime copies TableTTL and MinConfidence
// into core.DecisionPolicy.
type DecisionPolicy struct {
	// Coalesce has no effect: every invocation makes its own decision,
	// and Report.Coalesced is always false. The fast path below is the
	// one mechanism that lowers the cost of a decision.
	//
	// Deprecated: decisions are no longer coalesced.
	Coalesce bool
	// TableTTL bounds the age of an α-table record the runtime will
	// replay: a record older than the TTL is re-profiled. Together with
	// MinConfidence it also enables the fresh-entry fast path — a
	// periodic re-profile (Config.ReprofileEvery) is skipped while the
	// record is younger than the TTL and confident enough
	// (Report.FastPath). 0 disables age checks.
	TableTTL time.Duration
	// MinConfidence is how many recorded invocations a kernel's record
	// needs before the fast path may skip a periodic re-profile. 0
	// disables the confidence gate (the fast path then needs TableTTL).
	MinConfidence int
}
