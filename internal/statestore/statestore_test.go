package statestore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hetsched/eas/internal/faultinject"
)

func tempStatePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "alpha.state")
}

func sampleRecords() []Record {
	at := time.Unix(0, 1700000000000000000)
	return []Record{
		{Op: OpFull, Kernel: "matmul", Alpha: 0.7, Items: 4e6, Invocations: 12, Category: 3, Reprofile: false, At: at},
		{Op: OpAccum, Kernel: "bfs-frontier", Alpha: 0.25, Items: 100000, Category: 6, At: at.Add(time.Second)},
		{Op: OpReprofile, Kernel: "matmul"},
		{Op: OpAccum, Kernel: "nbody", Alpha: 1, Items: 1, Category: 0, At: at.Add(2 * time.Second)},
	}
}

func recordsEqual(a, b Record) bool {
	return a.Op == b.Op && a.Kernel == b.Kernel && a.Alpha == b.Alpha &&
		a.Items == b.Items && a.Invocations == b.Invocations &&
		a.Category == b.Category && a.Reprofile == b.Reprofile && a.At.Equal(b.At)
}

func TestOpenColdStart(t *testing.T) {
	path := tempStatePath(t)
	s, recs, stats, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(recs) != 0 {
		t.Errorf("cold start returned %d records", len(recs))
	}
	if stats != (RecoveryStats{}) {
		t.Errorf("cold start stats = %+v, want zero", stats)
	}
	if _, err := os.Stat(WALPath(path)); err != nil {
		t.Errorf("cold start should create the WAL: %v", err)
	}
}

func TestAppendRoundTrip(t *testing.T) {
	path := tempStatePath(t)
	s, _, _, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if n, b := s.Appended(); n != len(want) || b <= 0 {
		t.Errorf("Appended() = %d records %d bytes", n, b)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, recs, stats, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if stats.WALRecords != len(want) || stats.CorruptRecords != 0 || stats.TornTail {
		t.Errorf("recovery stats = %+v", stats)
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !recordsEqual(recs[i], want[i]) {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
}

// TestSyncOnCompactSurvivesClose proves the buffered mode loses nothing
// across a clean shutdown: Close flushes and fsyncs.
func TestSyncOnCompactSurvivesClose(t *testing.T) {
	path := tempStatePath(t)
	s, _, _, err := Open(path, Options{Sync: SyncOnCompact})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sampleRecords()) {
		t.Errorf("recovered %d records after buffered close, want %d", len(recs), len(sampleRecords()))
	}
}

func TestCompactionAndGenerations(t *testing.T) {
	path := tempStatePath(t)
	s, _, _, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	full := []Record{
		{Op: OpFull, Kernel: "matmul", Alpha: 0.7, Items: 4e6, Invocations: 13, Category: 3, At: time.Unix(1700000100, 0)},
		{Op: OpFull, Kernel: "bfs-frontier", Alpha: 0.25, Items: 100000, Invocations: 1, Category: 6, At: time.Unix(1700000101, 0)},
	}
	if err := s.Compact(full); err != nil {
		t.Fatal(err)
	}
	// Post-compaction mutations land in the fresh WAL generation.
	delta := Record{Op: OpAccum, Kernel: "matmul", Alpha: 0.6, Items: 5000, Category: 3, At: time.Unix(1700000102, 0)}
	if _, err := s.Append(delta); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, recs, stats, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if stats.SnapshotRecords != len(full) || stats.WALRecords != 1 {
		t.Errorf("stats = %+v, want %d snapshot + 1 WAL", stats, len(full))
	}
	if stats.StaleWALDiscarded {
		t.Error("fresh WAL flagged stale")
	}
	// Replay order: snapshot rows first, then WAL deltas.
	if len(recs) != len(full)+1 || !recordsEqual(recs[len(recs)-1], delta) {
		t.Fatalf("replay order wrong: %+v", recs)
	}
}

// TestStaleWALDiscarded reproduces a crash between compaction's
// snapshot rename and the WAL reset: the WAL's generation predates the
// snapshot's, so its records — already folded into the snapshot — must
// be dropped, not double-replayed.
func TestStaleWALDiscarded(t *testing.T) {
	path := tempStatePath(t)
	full := sampleRecords()[:1]
	if err := writeSnapshotFile(path, 7, full); err != nil {
		t.Fatal(err)
	}
	// A gen-3 WAL carrying a mutation the snapshot already holds.
	var wal []byte
	wal = append(wal, encodeHeader(kindWAL, 3)...)
	wal = encodeRecord(wal, Record{Op: OpAccum, Kernel: "matmul", Alpha: 0.5, Items: 10, Category: 3, At: time.Unix(1700000000, 0)})
	if err := os.WriteFile(WALPath(path), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s, recs, stats, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !stats.StaleWALDiscarded {
		t.Error("stale WAL not flagged")
	}
	if stats.WALRecords != 0 || len(recs) != len(full) {
		t.Errorf("stale WAL replayed: stats=%+v recs=%d", stats, len(recs))
	}
	// The reopened store must have reset the WAL to the snapshot's
	// generation so the next open does not re-discard.
	rec2 := Record{Op: OpReprofile, Kernel: "matmul"}
	if _, err := s.Append(rec2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs2, stats2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.StaleWALDiscarded || stats2.WALRecords != 1 || len(recs2) != len(full)+1 {
		t.Errorf("post-recovery generation broken: stats=%+v recs=%d", stats2, len(recs2))
	}
}

// buildWALImage returns a complete WAL image plus the offset of every
// record boundary (including the header end and the file end).
func buildWALImage(recs []Record) (data []byte, boundaries []int) {
	data = append(data, encodeHeader(kindWAL, 1)...)
	boundaries = append(boundaries, len(data))
	for _, r := range recs {
		data = encodeRecord(data, r)
		boundaries = append(boundaries, len(data))
	}
	return data, boundaries
}

// TestTornWriteMatrix truncates a valid WAL at every byte offset and
// asserts the crash-recovery contract at each: no panic, every record
// wholly before the cut is recovered, a mid-record cut is reported as a
// torn tail and physically truncated, and the store stays appendable.
func TestTornWriteMatrix(t *testing.T) {
	recs := sampleRecords()
	data, boundaries := buildWALImage(recs)
	onBoundary := make(map[int]int) // offset → records wholly before it
	for i, b := range boundaries {
		onBoundary[b] = i
	}
	dir := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "alpha.state")
		if err := os.WriteFile(WALPath(path), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, got, stats, err := Open(path, Options{Sync: SyncAlways})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}

		headerOK := cut >= headerLen
		wantRecs := 0
		if headerOK {
			// Records wholly before the cut survive.
			for i, b := range boundaries[1:] {
				if cut >= b {
					wantRecs = i + 1
				}
			}
		}
		if len(got) != wantRecs {
			t.Errorf("cut=%d: recovered %d records, want %d", cut, len(got), wantRecs)
		}
		_, atBoundary := onBoundary[cut]
		if headerOK {
			wantTorn := !atBoundary
			if stats.TornTail != wantTorn {
				t.Errorf("cut=%d: TornTail=%v, want %v", cut, stats.TornTail, wantTorn)
			}
			if wantTorn {
				wantBytes := cut - boundaries[wantRecs]
				if stats.TornTailBytes != wantBytes {
					t.Errorf("cut=%d: TornTailBytes=%d, want %d", cut, stats.TornTailBytes, wantBytes)
				}
			}
		}

		// The store must be usable after any crash shape: append one
		// record and recover everything on the next open.
		extra := Record{Op: OpReprofile, Kernel: "post-crash"}
		if _, err := s.Append(extra); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		_, got2, stats2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if stats2.TornTail || stats2.CorruptRecords != 0 {
			t.Errorf("cut=%d: reopen after truncation still dirty: %+v", cut, stats2)
		}
		if len(got2) != wantRecs+1 || !recordsEqual(got2[len(got2)-1], extra) {
			t.Errorf("cut=%d: reopen recovered %d records, want %d", cut, len(got2), wantRecs+1)
		}
		os.Remove(path)
		os.Remove(WALPath(path))
	}
}

// TestByteFlipMatrix flips every byte of a valid WAL image in turn and
// asserts recovery never panics, never fabricates a record that was not
// written (the CRC gate), and loses at most the records the flipped
// frame touches.
func TestByteFlipMatrix(t *testing.T) {
	recs := sampleRecords()
	data, _ := buildWALImage(recs)
	for off := 0; off < len(data); off++ {
		mut := bytes.Clone(data)
		mut[off] ^= 0xFF
		hdr, got, lastGood, stats, headerOK := decodeFile(mut)
		if lastGood < 0 || lastGood > int64(len(mut)) {
			t.Fatalf("off=%d: lastGood=%d out of range", off, lastGood)
		}
		if off < headerLen {
			if headerOK && hdr.kind == kindWAL && hdr.gen == 1 {
				t.Errorf("off=%d: header flip went unnoticed", off)
			}
			continue
		}
		if !headerOK {
			t.Errorf("off=%d: body flip corrupted the header", off)
			continue
		}
		// Every recovered record must be byte-for-byte one of the
		// originals: corruption may drop records, never invent them.
		for _, g := range got {
			found := false
			for _, w := range recs {
				if recordsEqual(g, w) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("off=%d: recovery fabricated record %+v", off, g)
			}
		}
		if len(got) >= len(recs) {
			t.Errorf("off=%d: flip lost no records (%d recovered) yet should corrupt one", off, len(got))
		}
		if len(got) < len(recs)-2 {
			t.Errorf("off=%d: flip lost %d records, resync should bound the damage", off, len(recs)-len(got))
		}
		if stats.CorruptRecords == 0 && !stats.TornTail {
			t.Errorf("off=%d: lost records but stats report nothing: %+v", off, stats)
		}
	}
}

func TestFaultInjectionDisablesStore(t *testing.T) {
	cases := []struct {
		name string
		arm  func(p *faultinject.Plan)
	}{
		{"write-error", func(p *faultinject.Plan) { p.Script(faultinject.WALWriteError, 1, 0) }},
		{"short-write", func(p *faultinject.Plan) { p.Script(faultinject.WALShortWrite, 1, 0) }},
		{"no-space", func(p *faultinject.Plan) { p.Script(faultinject.WALNoSpace, 1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tempStatePath(t)
			plan := faultinject.New(1)
			s, _, _, err := Open(path, Options{Sync: SyncAlways, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			good := sampleRecords()
			for _, r := range good[:2] {
				if _, err := s.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			tc.arm(plan)
			if _, err := s.Append(good[2]); err == nil {
				t.Fatal("injected fault did not fail the append")
			}
			if s.Err() == nil {
				t.Error("Err() nil after write failure")
			}
			// Degraded, permanently: every later call short-circuits.
			if _, err := s.Append(good[3]); err != ErrDisabled {
				t.Errorf("append after failure = %v, want ErrDisabled", err)
			}
			if err := s.Compact(nil); err != ErrDisabled {
				t.Errorf("compact after failure = %v, want ErrDisabled", err)
			}
			if err := s.Sync(); err != ErrDisabled {
				t.Errorf("sync after failure = %v, want ErrDisabled", err)
			}
			if s.NeedsCompaction() {
				t.Error("disabled store still asks for compaction")
			}
			if err := s.Close(); err != nil {
				t.Errorf("disabled close: %v", err)
			}

			// Whatever the fault left on disk — including the short
			// write's torn frame — must recover cleanly.
			s2, got, stats, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if len(got) != 2 {
				t.Errorf("recovered %d records, want the 2 pre-fault ones", len(got))
			}
			if tc.name == "short-write" && !stats.TornTail {
				t.Error("short write should leave a torn tail for recovery to truncate")
			}
		})
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := tempStatePath(t)
	full := []Record{
		{Op: OpFull, Kernel: "a", Alpha: 0.5, Items: 10, Invocations: 2, Category: 1, At: time.Unix(1700000000, 0)},
		{Op: OpFull, Kernel: "b", Alpha: 0, Items: 1, Invocations: 1, Category: 0, Reprofile: true, At: time.Unix(1700000001, 0)},
	}
	if err := WriteSnapshotFile(path, full); err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotRecords != len(full) || stats.CorruptRecords != 0 {
		t.Errorf("stats = %+v", stats)
	}
	for i := range full {
		if !recordsEqual(got[i], full[i]) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], full[i])
		}
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("snapshot write left %d files in the directory", len(entries))
	}
}

func TestCorruptSnapshotStartsCold(t *testing.T) {
	path := tempStatePath(t)
	if err := os.WriteFile(path, []byte("not a statestore file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, recs, stats, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(recs) != 0 || stats.CorruptRecords != 1 {
		t.Errorf("corrupt snapshot: recs=%d stats=%+v", len(recs), stats)
	}
}

func TestLongKernelNameTruncated(t *testing.T) {
	path := tempStatePath(t)
	s, _, _, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	long := string(bytes.Repeat([]byte("k"), maxNameLen+100))
	if _, err := s.Append(Record{Op: OpReprofile, Kernel: long}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Kernel) != maxNameLen {
		t.Errorf("oversized name not truncated to the wire cap: %d", len(recs[0].Kernel))
	}
}
