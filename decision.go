package eas

import "time"

// DecisionPolicy tunes the batched decision path (Config.Decision):
// how aggressively the runtime amortizes and skips the
// admission-serialized scheduling decision — online profiling plus the
// α search — that every invocation otherwise pays individually. The
// zero value decides every invocation on its own. Its fields match
// core.DecisionPolicy, which NewRuntime converts it to.
type DecisionPolicy struct {
	// Coalesce deduplicates concurrent scheduling decisions: when N
	// goroutines invoke the same kernel and it needs profiling, one
	// leader runs the single profile + α search and the other N-1
	// execute their full iteration counts at the published α
	// (Report.Coalesced) instead of queueing for their own profiles. A
	// leader that fails mid-flight sends its followers back to solo
	// decisions — coalescing never loses work, only overhead.
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
