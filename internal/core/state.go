package core

import (
	"fmt"
	"time"

	"github.com/hetsched/eas/internal/statestore"
	"github.com/hetsched/eas/internal/wclass"
)

// This file glues the scheduler's α table to internal/statestore: the
// durable layer that lets learned per-kernel state — the whole point
// of the paper's online-profiling design — survive a crash or restart
// instead of forcing every tenant back through full re-profiling.
//
// Division of labour: statestore frames, checksums, and orders
// records; this file decides what they mean. Every recovered record is
// routed through the same evidence gates live accumulation enforces
// (items > 0, finite α in [0,1], a valid category index, timestamps
// never from the future), so a checksummed-but-nonsensical record can
// no more poison the table than a live bad profile could. Recovered
// timestamps are preserved, not reset — a record that was stale before
// the crash is still stale after it, and the TableTTL machinery
// re-profiles it exactly as it would have without the restart.
//
// Persistence failures degrade, never escalate: the store disables
// itself on the first write error, the hooks below count the failure
// and stop trying, and the scheduling decision that triggered the
// write completes untouched.

// StatePolicy configures the durable α table. An empty Path — the
// zero value — keeps state in memory only.
type StatePolicy struct {
	// Path names the snapshot file; the WAL lives at Path+".wal".
	Path string
	// Sync selects WAL durability; New rejects modes other than
	// statestore.SyncOnCompact and statestore.SyncAlways.
	Sync statestore.SyncMode
	// CompactEvery is how many WAL records trigger compaction (0 picks
	// the statestore default, 1024).
	CompactEvery int
}

// RecoveryStats describes one startup recovery: what the store's
// parser observed on disk plus what the scheduler's sanitization did
// with it.
type RecoveryStats struct {
	statestore.RecoveryStats
	// Loaded counts records admitted into the α table.
	Loaded int
	// Rejected counts records that decoded cleanly but failed evidence
	// sanitization (non-finite or out-of-range α, zero items, invalid
	// category) and were refused.
	Rejected int
}

// openState opens (and recovers) the durable store configured by
// Options.State.Path. Called from New; an environmental failure —
// unwritable directory, undeletable torn tail — fails construction,
// because a scheduler that silently isn't persisting when asked to is
// worse than one that refuses to start.
func (s *Scheduler) openState() error {
	st, recs, stats, err := statestore.Open(s.opts.State.Path, statestore.Options{
		Sync:         s.opts.State.Sync,
		CompactEvery: s.opts.State.CompactEvery,
		Faults:       s.eng.FaultPlan(),
	})
	if err != nil {
		return fmt.Errorf("core: opening state store: %w", err)
	}
	s.store = st
	s.recovery.RecoveryStats = stats
	s.recovery.Loaded, s.recovery.Rejected = s.loadRecords(recs)
	s.opts.Observer.RecordStateRecovery(s.recovery.Loaded, stats.CorruptRecords, s.recovery.Rejected)
	return nil
}

// loadRecords replays recovered records into the α table in order
// (snapshot rows first, then WAL deltas), sanitizing each. It reports
// how many were admitted and how many refused.
func (s *Scheduler) loadRecords(recs []statestore.Record) (loaded, rejected int) {
	now := time.Now()
	for _, r := range recs {
		if s.loadRecord(r, now) {
			loaded++
		} else {
			rejected++
		}
	}
	return loaded, rejected
}

// loadRecord admits one recovered record, reporting acceptance. now
// clamps persisted timestamps: evidence from the future (a clock that
// jumped backwards between runs) is treated as exactly current, never
// as fresher than anything live accumulation could produce.
func (s *Scheduler) loadRecord(r statestore.Record, now time.Time) bool {
	if r.Kernel == "" {
		return false
	}
	cat, ok := wclass.FromIndex(int(r.Category))
	if !ok {
		return false
	}
	at := r.At
	if at.After(now) {
		at = now
	}
	switch r.Op {
	case statestore.OpFull:
		if !saneAlpha(r.Alpha) || !(r.Items > 0) || r.Invocations == 0 {
			return false
		}
		s.table.intern(r.Kernel).restore(record{
			alpha:       r.Alpha,
			weight:      r.Items,
			category:    cat,
			invocations: int(r.Invocations),
			profiled:    true,
			reprofile:   r.Reprofile,
			updatedAt:   at,
		})
		return true
	case statestore.OpAccum:
		if !saneAlpha(r.Alpha) {
			return false
		}
		// accumulateAt applies the same items>0 / finite-α gates live
		// accumulation does; its verdict is the admit/reject signal.
		return s.table.intern(r.Kernel).accumulateAt(r.Alpha, r.Items, cat, s.opts.Robustness.CategoryHysteresis, at)
	case statestore.OpReprofile:
		// Idempotent and a no-op for never-recorded kernels — exactly
		// the live markReprofile semantics.
		s.table.intern(r.Kernel).markReprofile()
		return true
	}
	return false
}

// saneAlpha bounds a persisted offload ratio: live decisions only ever
// produce α ∈ [0, 1], so anything else on disk is corruption that
// slipped past the CRC, not evidence. (NaN fails both comparisons.)
func saneAlpha(alpha float64) bool { return alpha >= 0 && alpha <= 1 }

// accumulatePersist is the persistence-enabled twin of the hot path's
// plain ent.accumulate: it folds the observation into the table and,
// when the table accepted it, appends the same evidence to the WAL.
// stateMu makes {mutate + append} atomic with respect to compaction's
// {export + truncate}, so a mutation is always in exactly one of
// snapshot or WAL — never both (double replay) or neither (loss).
func (s *Scheduler) accumulatePersist(ent *kernelEntry, name string, alpha, items float64, cat wclass.Category) {
	now := time.Now()
	s.stateMu.Lock()
	accepted := ent.accumulateAt(alpha, items, cat, s.opts.Robustness.CategoryHysteresis, now)
	if accepted {
		s.appendLocked(statestore.Record{
			Op:       statestore.OpAccum,
			Kernel:   name,
			Alpha:    alpha,
			Items:    items,
			Category: byte(cat.Index()),
			At:       now,
		})
	}
	s.stateMu.Unlock()
}

// persistReprofile journals a quarantine's forced re-profile flag.
func (s *Scheduler) persistReprofile(name string) {
	s.stateMu.Lock()
	s.appendLocked(statestore.Record{Op: statestore.OpReprofile, Kernel: name})
	s.stateMu.Unlock()
}

// appendLocked writes one record and runs compaction when the WAL has
// grown past the threshold. Write failures are counted and swallowed:
// the store has already disabled itself, and the scheduling decision
// that produced this record must not notice. Caller holds stateMu.
func (s *Scheduler) appendLocked(rec statestore.Record) {
	n, err := s.store.Append(rec)
	if err != nil {
		if err != statestore.ErrDisabled {
			// First failure only: later appends short-circuit on
			// ErrDisabled and must not re-count.
			s.opts.Observer.RecordStateError()
		}
		return
	}
	s.opts.Observer.RecordStateAppend(n)
	if s.store.NeedsCompaction() {
		if err := s.store.Compact(s.exportLocked()); err != nil {
			if err != statestore.ErrDisabled {
				s.opts.Observer.RecordStateError()
			}
			return
		}
		s.opts.Observer.RecordStateSnapshot()
	}
}

// exportLocked snapshots the full table as OpFull records. Caller
// holds stateMu (so no accumulate can slip between the walk and the
// compaction that consumes it).
func (s *Scheduler) exportLocked() []statestore.Record {
	out := make([]statestore.Record, 0, s.table.Len())
	s.table.export(func(name string, rec record) {
		out = append(out, fullRecord(name, rec))
	})
	return out
}

func fullRecord(name string, rec record) statestore.Record {
	return statestore.Record{
		Op:          statestore.OpFull,
		Kernel:      name,
		Alpha:       rec.alpha,
		Items:       rec.weight,
		Invocations: uint32(rec.invocations),
		Category:    byte(rec.category.Index()),
		Reprofile:   rec.reprofile,
		At:          rec.updatedAt,
	}
}

// Close flushes and closes the durable store (a no-op without one).
// The scheduler itself has no other resources to release; the engine
// and platform belong to the caller.
func (s *Scheduler) Close() error {
	if s.store == nil {
		return nil
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	err := s.store.Close()
	if err != nil && err != statestore.ErrDisabled {
		return err
	}
	return nil
}

// StateRecovery returns what this scheduler's startup recovery
// observed (the zero value when persistence is off or the state files
// did not exist).
func (s *Scheduler) StateRecovery() RecoveryStats { return s.recovery }

// StateDisabled reports whether a write failure has turned persistence
// off for this run (always false when persistence was never on).
func (s *Scheduler) StateDisabled() bool {
	return s.store != nil && s.store.Err() != nil
}

// SaveState writes a point-in-time snapshot of the α table to path,
// independent of (and without disturbing) the configured store — the
// manual escape hatch for migrations and backups. It works with
// persistence off.
func (s *Scheduler) SaveState(path string) error {
	s.stateMu.Lock()
	full := s.exportLocked()
	s.stateMu.Unlock()
	return statestore.WriteSnapshotFile(path, full)
}

// LoadState merges the records persisted at path into the live table
// through the standard sanitization gates, returning what recovery
// observed. Existing in-memory records are overwritten by snapshot
// rows and accumulated into by WAL deltas, exactly as at startup.
func (s *Scheduler) LoadState(path string) (RecoveryStats, error) {
	recs, stats, err := statestore.ReadFile(path)
	if err != nil {
		return RecoveryStats{}, err
	}
	var rs RecoveryStats
	rs.RecoveryStats = stats
	rs.Loaded, rs.Rejected = s.loadRecords(recs)
	s.opts.Observer.RecordStateRecovery(rs.Loaded, stats.CorruptRecords, rs.Rejected)
	return rs, nil
}
