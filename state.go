package eas

import (
	"errors"
	"time"

	"github.com/hetsched/eas/internal/core"
)

// StatePolicy configures durable scheduler state: a crash-safe record
// of the α table — the per-kernel offload ratios, categories, and
// confidence the runtime learns online — so a restart warm-starts from
// what the previous process learned instead of re-profiling every
// kernel from scratch.
//
// The on-disk layout is two files: Path holds an atomic snapshot
// (rewritten by compaction via temp + fsync + rename), and Path+".wal"
// an append-only, CRC-framed log of mutations since. Recovery
// tolerates crashes at any point: a torn WAL tail is truncated,
// corrupt records are skipped and counted (RecoveryStats), and every
// loaded record passes the same evidence sanitization as live
// accumulation before it may influence a scheduling decision.
// Timestamps are preserved across restart, so records stale under
// Config.Decision.TableTTL re-profile exactly as they would have
// without the restart.
//
// Deliberately NOT persisted: admission queues and quotas, breaker
// state, and meter history — all of it describes
// in-flight or sensor-local conditions that do not outlive a process
// meaningfully.
//
// Persistence failures degrade, never escalate: the first write error
// disables the store for the rest of the run (counted in metrics,
// visible via Runtime.StateDisabled) and scheduling continues from
// memory.
type StatePolicy struct {
	// Path names the snapshot file; the WAL lives at Path+".wal". The
	// parent directory must exist. Empty disables persistence.
	Path string
	// Sync selects WAL durability (default SyncOnCompact).
	Sync StateSync
	// CompactEvery is how many WAL records trigger compaction into a
	// fresh snapshot (default 1024).
	CompactEvery int
	// DrainTimeout bounds how long Runtime.Close waits for in-flight
	// invocations before closing anyway (default 5s).
	DrainTimeout time.Duration
}

// StateSync selects when WAL appends reach stable storage.
type StateSync int

const (
	// SyncOnCompact buffers appends and fsyncs at compaction and Close
	// only: minimal overhead; a hard kill loses the records appended
	// since the last sync (never file integrity — recovery truncates
	// the torn tail).
	SyncOnCompact StateSync = iota
	// SyncAlways fsyncs after every append: a hard kill loses at most
	// the record being written. Use for kill-restart warm starts.
	SyncAlways
)

// ErrClosed is returned by ParallelFor/ParallelForCtx once Runtime.
// Close has begun: the runtime no longer admits invocations.
var ErrClosed = errors.New("eas: runtime is closed")

// RecoveryStats describes one state recovery: what the parser observed
// on disk and what evidence sanitization admitted.
type RecoveryStats struct {
	// SnapshotRecords and WALRecords count cleanly decoded records.
	SnapshotRecords, WALRecords int
	// CorruptRecords counts frames skipped for CRC/framing corruption.
	CorruptRecords int
	// TornTail reports a WAL that ended mid-record — the signature of
	// a crash during an append; TornTailBytes is the truncated length.
	TornTail      bool
	TornTailBytes int
	// StaleWALDiscarded reports a WAL generation older than the
	// snapshot's (crash between compaction's rename and WAL reset);
	// its records were already in the snapshot and were not replayed.
	StaleWALDiscarded bool
	// Loaded counts records admitted into the α table; Rejected those
	// refused by evidence sanitization (non-finite or out-of-range α,
	// zero items, invalid category).
	Loaded, Rejected int
}

func fromCoreRecovery(rs core.RecoveryStats) RecoveryStats {
	return RecoveryStats{
		SnapshotRecords:   rs.SnapshotRecords,
		WALRecords:        rs.WALRecords,
		CorruptRecords:    rs.CorruptRecords,
		TornTail:          rs.TornTail,
		TornTailBytes:     rs.TornTailBytes,
		StaleWALDiscarded: rs.StaleWALDiscarded,
		Loaded:            rs.Loaded,
		Rejected:          rs.Rejected,
	}
}

// StateRecovery returns what this runtime's startup recovery observed
// (the zero value when persistence is off or no state files existed).
func (r *Runtime) StateRecovery() RecoveryStats {
	return fromCoreRecovery(r.sched.StateRecovery())
}

// StateDisabled reports whether a write failure has turned persistence
// off for this run (always false when persistence was never enabled).
func (r *Runtime) StateDisabled() bool { return r.sched.StateDisabled() }

// SaveState writes a point-in-time snapshot of the learned α table to
// path with the same crash-safe discipline compaction uses. It works
// with persistence off — the manual escape hatch for backups and
// migrations — and does not disturb a configured state store.
func (r *Runtime) SaveState(path string) error { return r.sched.SaveState(path) }

// LoadState merges records persisted at path into the live table
// through the standard sanitization gates, returning what recovery
// observed. Snapshot rows overwrite same-name records; WAL deltas
// accumulate into them.
func (r *Runtime) LoadState(path string) (RecoveryStats, error) {
	rs, err := r.sched.LoadState(path)
	if err != nil {
		return RecoveryStats{}, err
	}
	return fromCoreRecovery(rs), nil
}
