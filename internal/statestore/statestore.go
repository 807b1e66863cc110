// Package statestore persists the scheduler's learned state — the
// per-kernel α-table records the paper's global table G accumulates
// online — across process restarts, so a crash or redeploy does not
// force every tenant's workload through full re-profiling again.
//
// The design is a classic two-file log-structured store:
//
//   - an append-only WAL of table mutations (one framed record per
//     accumulate / replace / re-profile event), fsynced per-append or
//     per-compaction depending on the sync mode; and
//   - a snapshot holding one full record per kernel, rewritten by
//     Compact via the temp-file → fsync → rename → fsync-parent-dir
//     dance so a reader (or a crash) never observes a half-written
//     snapshot.
//
// Every record is individually framed — marker, length, CRC-32,
// payload — so recovery is corruption-tolerant rather than
// all-or-nothing: a torn tail (crash mid-append) is truncated, a
// bit-flipped record fails its checksum and is skipped by scanning
// forward to the next frame marker, and both outcomes are counted in
// RecoveryStats instead of failing the open. Snapshot and WAL carry a
// generation number; a WAL older than the snapshot (a crash between
// snapshot rename and WAL truncation) is discarded rather than
// double-replayed.
//
// The store is deliberately ignorant of scheduling semantics: it
// frames, checksums, and orders records. Evidence sanitization —
// items > 0, finite α, category validity, TTL/staleness — belongs to
// the consumer (internal/core), which routes every recovered record
// through the same checks live accumulation uses.
//
// Persistence failures degrade, never escalate: the first write error
// (including injected short-write / ENOSPC faults from a
// faultinject.Plan) permanently disables the store, and every later
// Append returns ErrDisabled immediately. The scheduler counts and
// logs the failure and keeps making decisions from memory.
package statestore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/hetsched/eas/internal/faultinject"
)

// SyncMode selects when the WAL reaches stable storage.
type SyncMode int

const (
	// SyncOnCompact (the default) buffers appends and fsyncs only at
	// compaction and Close. A hard kill loses the records appended
	// since the last sync, never the file's integrity.
	SyncOnCompact SyncMode = iota
	// SyncAlways flushes and fsyncs the WAL after every append: a hard
	// kill loses at most the record being written (recovered as a torn
	// tail). This is the mode kill-restart warm starts rely on.
	SyncAlways
)

// Op distinguishes the mutation kinds the WAL records.
type Op byte

const (
	// OpFull carries a kernel's complete record state — snapshot rows
	// and explicit replaces.
	OpFull Op = 1
	// OpAccum carries one accumulate delta: the evidence (α, items,
	// category) of a single recorded invocation.
	OpAccum Op = 2
	// OpReprofile marks a kernel whose next invocation must profile
	// again (a quarantined profile).
	OpReprofile Op = 3
)

// Record is one persisted table mutation. Fields beyond Op and Kernel
// are op-specific; see the Op constants.
type Record struct {
	Op     Op
	Kernel string
	// Alpha is the offload ratio (OpFull: accumulated; OpAccum: this
	// invocation's).
	Alpha float64
	// Items is the evidence weight: the invocation's item count for
	// OpAccum, the record's total accumulated weight for OpFull.
	Items float64
	// Invocations is the record's recorded-invocation count (OpFull).
	Invocations uint32
	// Category is the dense workload-class index (wclass.Index()).
	Category byte
	// Reprofile carries the record's forced-re-profile flag (OpFull).
	Reprofile bool
	// At is the mutation's wall-clock time — the age the TTL/staleness
	// checks honor across restarts.
	At time.Time
}

// RecoveryStats reports what recovery found. Corrupt and torn records
// are expected outcomes of crashes, not errors: they are counted and
// skipped so one bad frame never poisons the rest of the state.
type RecoveryStats struct {
	// SnapshotRecords and WALRecords count frames decoded cleanly.
	SnapshotRecords int
	WALRecords      int
	// CorruptRecords counts frames skipped for a checksum mismatch,
	// an implausible length, or an undecodable payload (snapshot and
	// WAL combined). A file whose header is unreadable counts once.
	CorruptRecords int
	// TornTail is true when the WAL ended mid-record — the signature
	// of a crash during an append; TornTailBytes is how many trailing
	// bytes were discarded (and physically truncated on open).
	TornTail      bool
	TornTailBytes int
	// StaleWALDiscarded is true when the WAL's generation predated the
	// snapshot's (a crash between snapshot rename and WAL truncation)
	// and its records — already folded into the snapshot — were
	// dropped instead of double-replayed.
	StaleWALDiscarded bool
}

// Options tune a Store.
type Options struct {
	// Sync selects the WAL durability mode.
	Sync SyncMode
	// CompactEvery is how many appended records arm NeedsCompaction
	// (default 1024; the store never compacts on its own — the owner
	// calls Compact with a full table export).
	CompactEvery int
	// Faults, when non-nil, injects write failures (error / short
	// write / ENOSPC) into Append so degradation is testable.
	Faults *faultinject.Plan
}

// ErrDisabled is returned by Append and Compact after a write failure
// has permanently disabled persistence for this store.
var ErrDisabled = errors.New("statestore: persistence disabled after write failure")

const (
	fileMagic    = "EASSTAT1"
	kindSnapshot = byte(1)
	kindWAL      = byte(2)
	headerLen    = len(fileMagic) + 1 + 8 // magic | kind | generation

	recMarker   = uint32(0xEA5C0DE5)
	frameLen    = 12 // marker | payloadLen | crc32
	maxPayload  = 1 << 16
	maxNameLen  = 1 << 12
	defCompact  = 1024
	tmpBaseSnap = ".eas-state-*"
)

// Store is an open durable-state handle: the WAL file plus the path
// its snapshots compact into. All methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	path     string // snapshot path; the WAL lives at path+".wal"
	opts     Options
	gen      uint64
	wal      *os.File
	buf      *bufio.Writer
	scratch  []byte
	appended int // records in the current WAL generation
	bytes    int64
	disabled bool
	err      error // first write failure
}

// WALPath returns the WAL path for a snapshot path.
func WALPath(path string) string { return path + ".wal" }

// Open recovers the state persisted at path (snapshot plus WAL) and
// returns the store ready for appends, the recovered records in replay
// order (snapshot rows first, then WAL mutations), and what recovery
// observed. Missing files are a cold start, not an error; corrupt or
// torn content is skipped and counted. The error is non-nil only for
// environmental failures (unwritable directory, undeletable tail).
func Open(path string, opts Options) (*Store, []Record, RecoveryStats, error) {
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = defCompact
	}
	var stats RecoveryStats
	var recs []Record

	snapGen, snapOK := uint64(0), false
	if data, err := os.ReadFile(path); err == nil {
		hdr, srecs, _, st, headerOK := decodeFile(data)
		stats.SnapshotRecords = len(srecs)
		stats.CorruptRecords += st.CorruptRecords
		if headerOK && hdr.kind == kindSnapshot {
			snapGen, snapOK = hdr.gen, true
			recs = append(recs, srecs...)
		} else if len(data) > 0 {
			// Unreadable header or wrong kind: the snapshot as a whole
			// is corrupt. Count it once and start cold.
			stats.CorruptRecords++
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, stats, fmt.Errorf("statestore: reading snapshot: %w", err)
	}

	walPath := WALPath(path)
	gen := snapGen
	if !snapOK {
		gen = 1
	}
	walValid := false
	if data, err := os.ReadFile(walPath); err == nil {
		hdr, wrecs, lastGood, st, headerOK := decodeFile(data)
		switch {
		case !headerOK && len(data) > 0:
			stats.CorruptRecords++
		case headerOK && hdr.kind != kindWAL:
			stats.CorruptRecords++
		case headerOK && snapOK && hdr.gen != snapGen:
			// Crash between snapshot rename and WAL truncation: these
			// mutations are already inside the snapshot.
			stats.StaleWALDiscarded = true
		case headerOK:
			if !snapOK {
				gen = hdr.gen
			}
			walValid = true
			stats.WALRecords = len(wrecs)
			stats.CorruptRecords += st.CorruptRecords
			stats.TornTail = st.TornTail
			stats.TornTailBytes = st.TornTailBytes
			recs = append(recs, wrecs...)
			if st.TornTail {
				// Physically drop the torn tail so the next append
				// starts on a clean record boundary.
				if err := os.Truncate(walPath, lastGood); err != nil {
					return nil, nil, stats, fmt.Errorf("statestore: truncating torn WAL tail: %w", err)
				}
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, stats, fmt.Errorf("statestore: reading WAL: %w", err)
	}

	s := &Store{path: path, opts: opts, gen: gen}
	if walValid {
		f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, stats, fmt.Errorf("statestore: opening WAL for append: %w", err)
		}
		s.wal = f
		s.appended = stats.WALRecords
	} else {
		if err := s.createWAL(); err != nil {
			return nil, nil, stats, err
		}
	}
	s.buf = bufio.NewWriter(s.wal)
	return s, recs, stats, nil
}

// createWAL (re)creates the WAL with a fresh header at the store's
// current generation. Caller holds the lock (or is Open).
func (s *Store) createWAL() error {
	f, err := os.OpenFile(WALPath(s.path), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("statestore: creating WAL: %w", err)
	}
	if _, err := f.Write(encodeHeader(kindWAL, s.gen)); err != nil {
		f.Close()
		return fmt.Errorf("statestore: writing WAL header: %w", err)
	}
	s.wal = f
	s.appended = 0
	return nil
}

// Append frames one mutation record onto the WAL. After the first
// write failure the store disables itself and every later Append
// returns ErrDisabled without touching the file — persistence
// degrades; it never makes the caller's scheduling decision fail.
// It returns the framed size in bytes for accounting.
func (s *Store) Append(rec Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled {
		return 0, ErrDisabled
	}
	s.scratch = encodeRecord(s.scratch[:0], rec)
	n := len(s.scratch)

	// Injected faults take precedence in this order: write error,
	// short write, disk full.
	faults := s.opts.Faults
	if _, ok := faults.Take(faultinject.WALWriteError); ok {
		return 0, s.disable(errors.New("statestore: injected write error"))
	}
	if _, ok := faults.Take(faultinject.WALShortWrite); ok {
		// Write a prefix of the frame, then fail — the torn-record
		// shape recovery must truncate.
		s.buf.Write(s.scratch[:n/2])
		s.buf.Flush()
		return 0, s.disable(errors.New("statestore: injected short write"))
	}
	if _, ok := faults.Take(faultinject.WALNoSpace); ok {
		return 0, s.disable(errors.New("statestore: injected write failure: no space left on device"))
	}

	if _, err := s.buf.Write(s.scratch); err != nil {
		return 0, s.disable(err)
	}
	if s.opts.Sync == SyncAlways {
		if err := s.flushLocked(); err != nil {
			return 0, s.disable(err)
		}
	}
	s.appended++
	s.bytes += int64(n)
	return n, nil
}

// disable permanently turns persistence off, remembering the first
// cause. Caller holds the lock.
func (s *Store) disable(err error) error {
	s.disabled = true
	if s.err == nil {
		s.err = err
	}
	return err
}

// flushLocked drains the buffer and fsyncs the WAL. Caller holds the
// lock.
func (s *Store) flushLocked() error {
	if err := s.buf.Flush(); err != nil {
		return err
	}
	return s.wal.Sync()
}

// NeedsCompaction reports whether the WAL has accumulated enough
// records that the owner should fold them into a snapshot.
func (s *Store) NeedsCompaction() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.disabled && s.appended >= s.opts.CompactEvery
}

// Compact atomically replaces the snapshot with the given full table
// export and starts a fresh WAL generation. The snapshot write is
// crash-safe (temp + fsync + rename + fsync parent dir); the ordering
// — snapshot first, WAL truncation second — plus the generation check
// at Open make a crash at any point recoverable without replaying a
// mutation twice.
func (s *Store) Compact(full []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled {
		return ErrDisabled
	}
	// The old WAL's buffered tail is irrelevant once the snapshot
	// lands, but flush errors signal a sick disk — stop early.
	if err := s.buf.Flush(); err != nil {
		return s.disable(err)
	}
	if err := writeSnapshotFile(s.path, s.gen+1, full); err != nil {
		return s.disable(err)
	}
	s.gen++
	if err := s.wal.Close(); err != nil {
		return s.disable(err)
	}
	if err := s.createWAL(); err != nil {
		return s.disable(err)
	}
	s.buf.Reset(s.wal)
	return nil
}

// Sync flushes buffered appends to stable storage (a no-op under
// SyncAlways, where every append already did).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled {
		return ErrDisabled
	}
	if err := s.flushLocked(); err != nil {
		return s.disable(err)
	}
	return nil
}

// Close flushes, fsyncs, and closes the WAL. The store must not be
// used afterwards. A disabled store closes the file handle without
// attempting further writes.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	var err error
	if !s.disabled {
		err = s.flushLocked()
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

// Err returns the first write failure that disabled the store (nil
// while healthy).
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Appended reports records and bytes appended to the current store
// since Open (across generations).
func (s *Store) Appended() (records int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended, s.bytes
}

// WriteSnapshotFile writes a standalone snapshot of full records to
// path with the same crash-safe discipline Compact uses — the
// SaveState escape hatch.
func WriteSnapshotFile(path string, recs []Record) error {
	return writeSnapshotFile(path, 1, recs)
}

// ReadFile decodes any statestore file (snapshot or WAL) with the
// recovery parser: corrupt frames are skipped and counted, a torn
// tail truncates the decode (the file itself is left untouched).
func ReadFile(path string) ([]Record, RecoveryStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	hdr, recs, _, st, headerOK := decodeFile(data)
	var stats RecoveryStats
	stats.CorruptRecords = st.CorruptRecords
	stats.TornTail = st.TornTail
	stats.TornTailBytes = st.TornTailBytes
	if !headerOK {
		stats.CorruptRecords++
		return nil, stats, nil
	}
	if hdr.kind == kindSnapshot {
		stats.SnapshotRecords = len(recs)
	} else {
		stats.WALRecords = len(recs)
	}
	return recs, stats, nil
}

func writeSnapshotFile(path string, gen uint64, recs []Record) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpBaseSnap)
	if err != nil {
		return fmt.Errorf("statestore: creating temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	w.Write(encodeHeader(kindSnapshot, gen))
	var scratch []byte
	for _, r := range recs {
		scratch = encodeRecord(scratch[:0], r)
		if _, err := w.Write(scratch); err != nil {
			tmp.Close()
			return fmt.Errorf("statestore: writing snapshot: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("statestore: writing snapshot: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("statestore: snapshot permissions: %w", err)
	}
	// fsync before rename: the rename must never expose a file whose
	// bytes are still only in the page cache.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("statestore: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("statestore: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("statestore: committing snapshot: %w", err)
	}
	// fsync the parent directory so the rename itself is durable.
	return SyncDir(dir)
}

// WriteFileAtomic commits data under path the crash-safe way: a temp
// file in the same directory, fsync, rename over path, then fsync of
// the directory. A reader never sees a partial file, and a crash never
// leaves a truncated one under the final name.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("statestore: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("statestore: writing temp file: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("statestore: setting file permissions: %w", err)
	}
	// fsync before the rename: without it the rename can land while the
	// data is still only in the page cache, and a power loss would
	// commit an empty or truncated file under the final name.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("statestore: syncing temp file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("statestore: closing temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("statestore: committing %s: %w", filepath.Base(path), err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making a just-completed rename durable.
// Filesystems that do not support directory fsync report it as a
// benign error, which is swallowed.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("statestore: opening dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, os.ErrInvalid) || errors.Is(err, errors.ErrUnsupported)) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("statestore: syncing dir: %w", err)
	}
	return nil
}

// --- wire format ---

type fileHeader struct {
	kind byte
	gen  uint64
}

func encodeHeader(kind byte, gen uint64) []byte {
	b := make([]byte, 0, headerLen)
	b = append(b, fileMagic...)
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint64(b, gen)
	return b
}

// encodeRecord frames one record: marker | payloadLen | crc32(payload)
// | payload. The payload starts with the op byte and the
// length-prefixed kernel name, then op-specific fields.
func encodeRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, recMarker)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc placeholders
	p := len(dst)
	dst = append(dst, byte(r.Op))
	name := r.Kernel
	if len(name) > maxNameLen {
		name = name[:maxNameLen]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	switch r.Op {
	case OpFull:
		dst = binary.LittleEndian.AppendUint64(dst, floatBits(r.Alpha))
		dst = binary.LittleEndian.AppendUint64(dst, floatBits(r.Items))
		dst = binary.LittleEndian.AppendUint32(dst, r.Invocations)
		dst = append(dst, r.Category, boolByte(r.Reprofile))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.At.UnixNano()))
	case OpAccum:
		dst = binary.LittleEndian.AppendUint64(dst, floatBits(r.Alpha))
		dst = binary.LittleEndian.AppendUint64(dst, floatBits(r.Items))
		dst = append(dst, r.Category)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.At.UnixNano()))
	case OpReprofile:
		// name only
	}
	payload := dst[p:]
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+8:], crc32.ChecksumIEEE(payload))
	return dst
}

// decodeFile parses a whole snapshot or WAL image. It never panics on
// arbitrary input (FuzzLoadState's contract): corrupt frames are
// counted and skipped by scanning forward to the next marker, an
// incomplete final frame is reported as a torn tail, and lastGood is
// the offset a physical truncation should cut at.
func decodeFile(data []byte) (hdr fileHeader, recs []Record, lastGood int64, stats RecoveryStats, headerOK bool) {
	if len(data) < headerLen || string(data[:len(fileMagic)]) != fileMagic {
		return hdr, nil, 0, stats, false
	}
	hdr.kind = data[len(fileMagic)]
	hdr.gen = binary.LittleEndian.Uint64(data[len(fileMagic)+1:])
	if hdr.kind != kindSnapshot && hdr.kind != kindWAL {
		return hdr, nil, 0, stats, false
	}
	headerOK = true
	lastGood = int64(headerLen)

	off := headerLen
	for off < len(data) {
		rec, next, status := decodeFrame(data, off)
		switch status {
		case frameOK:
			recs = append(recs, rec)
			off = next
			lastGood = int64(off)
		case frameCorrupt:
			stats.CorruptRecords++
			off = next
		case frameTorn:
			stats.TornTail = true
			stats.TornTailBytes = len(data) - int(lastGood)
			return hdr, recs, lastGood, stats, true
		}
	}
	return hdr, recs, lastGood, stats, true
}

type frameStatus int

const (
	frameOK frameStatus = iota
	frameCorrupt
	frameTorn
)

// decodeFrame tries to read one frame at off. On corruption it
// returns the offset of the next candidate marker (resync), so one
// bad frame costs one record, not the rest of the file.
func decodeFrame(data []byte, off int) (Record, int, frameStatus) {
	if len(data)-off < frameLen {
		return Record{}, off, frameTorn
	}
	if binary.LittleEndian.Uint32(data[off:]) != recMarker {
		return Record{}, resync(data, off+1), frameCorrupt
	}
	plen := int(binary.LittleEndian.Uint32(data[off+4:]))
	crc := binary.LittleEndian.Uint32(data[off+8:])
	if plen <= 0 || plen > maxPayload {
		return Record{}, resync(data, off+1), frameCorrupt
	}
	if len(data)-off-frameLen < plen {
		// Shorter than the declared payload: a torn tail if nothing
		// follows, a corrupted length if another marker does.
		if next := resync(data, off+1); next < len(data) {
			return Record{}, next, frameCorrupt
		}
		return Record{}, off, frameTorn
	}
	payload := data[off+frameLen : off+frameLen+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, resync(data, off+1), frameCorrupt
	}
	rec, ok := decodePayload(payload)
	if !ok {
		return Record{}, resync(data, off+1), frameCorrupt
	}
	return rec, off + frameLen + plen, frameOK
}

// resync scans forward from off for the next frame marker, returning
// len(data) when none remains.
func resync(data []byte, off int) int {
	for ; off+4 <= len(data); off++ {
		if binary.LittleEndian.Uint32(data[off:]) == recMarker {
			return off
		}
	}
	return len(data)
}

func decodePayload(p []byte) (Record, bool) {
	if len(p) < 3 {
		return Record{}, false
	}
	var r Record
	r.Op = Op(p[0])
	nameLen := int(binary.LittleEndian.Uint16(p[1:]))
	if nameLen == 0 || nameLen > maxNameLen || len(p) < 3+nameLen {
		return Record{}, false
	}
	r.Kernel = string(p[3 : 3+nameLen])
	rest := p[3+nameLen:]
	switch r.Op {
	case OpFull:
		if len(rest) != 8+8+4+1+1+8 {
			return Record{}, false
		}
		r.Alpha = bitsFloat(binary.LittleEndian.Uint64(rest))
		r.Items = bitsFloat(binary.LittleEndian.Uint64(rest[8:]))
		r.Invocations = binary.LittleEndian.Uint32(rest[16:])
		r.Category = rest[20]
		r.Reprofile = rest[21] != 0
		r.At = timeFromNanos(int64(binary.LittleEndian.Uint64(rest[22:])))
	case OpAccum:
		if len(rest) != 8+8+1+8 {
			return Record{}, false
		}
		r.Alpha = bitsFloat(binary.LittleEndian.Uint64(rest))
		r.Items = bitsFloat(binary.LittleEndian.Uint64(rest[8:]))
		r.Category = rest[16]
		r.At = timeFromNanos(int64(binary.LittleEndian.Uint64(rest[17:])))
	case OpReprofile:
		if len(rest) != 0 {
			return Record{}, false
		}
	default:
		return Record{}, false
	}
	return r, true
}

func timeFromNanos(ns int64) time.Time {
	if ns <= 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func bitsFloat(u uint64) float64 { return math.Float64frombits(u) }
