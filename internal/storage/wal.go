package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"kdb/internal/fault"
)

// File formats.
//
// Snapshot (kdb.snap):
//
//	magic "KDBSNAP1"
//	repeat: uvarint record length, record bytes (encodeFact), crc32(record)
//	written to a temp file and atomically renamed.
//
// Write-ahead log (kdb.wal):
//
//	magic "KDBWAL01"
//	repeat: uvarint record length, record bytes, crc32(record)
//	A torn or corrupt tail is detected by length/CRC and truncated.
//
// A WAL record is either an insert (encodeFact bytes verbatim) or a
// tombstone: a 0x00 byte followed by encodeFact bytes. Insert payloads
// begin with uvarint(len(pred)) and predicate names are nonempty, so
// the first byte of an insert record is never 0x00 — logs written
// before tombstones existed replay unchanged.

const (
	snapshotName  = "kdb.snap"
	walName       = "kdb.wal"
	snapshotMagic = "KDBSNAP1"
	walMagic      = "KDBWAL01"
	tombstoneTag  = 0x00
	maxRecordSize = 1 << 24 // 16 MiB sanity bound on a single fact record
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// writeRecord frames one record: uvarint length, payload, crc32.
func writeRecord(w io.Writer, payload []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	_, err := w.Write(crc[:])
	return err
}

// errTornRecord marks a truncated or corrupt record tail.
var errTornRecord = errors.New("storage: torn record")

// readRecord reads one framed record.
func readRecord(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTornRecord
	}
	if n > maxRecordSize {
		return nil, errTornRecord
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTornRecord
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, errTornRecord
	}
	if binary.BigEndian.Uint32(crc[:]) != crc32.Checksum(payload, crcTable) {
		return nil, errTornRecord
	}
	return payload, nil
}

// wal is an append-only write-ahead log of fact insertions.
type wal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer
	// durable is the file offset up to which every record is known fully
	// written and synced. A failed append rewinds the log to this
	// boundary so a partial frame never prefixes later records.
	//kdb:guarded-by mu
	durable int64
	// failed, once set, poisons the log: the rewind after a failed
	// append itself failed, so the on-disk/in-buffer state is unknown
	// and every later append returns this error.
	//kdb:guarded-by mu
	failed error
	// obs, when non-nil, points at the owning store's observer slot;
	// append and fsync latencies are reported through it.
	obs *observerHolder
}

// openWAL opens (or creates) the log at path, replaying every valid
// record through apply (tombstone reports whether the record is a
// deletion). A torn tail is truncated so the next append starts from a
// clean boundary. A freshly created log's directory entry is fsynced so
// the file itself survives a crash.
func openWAL(path string, apply func(pred string, t Tuple, tombstone bool) error) (*wal, error) {
	if err := fault.Inject(fault.SiteWALOpen); err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	validEnd, err := replayWAL(f, apply)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: truncate torn wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: seek wal: %w", err)
	}
	w := &wal{path: path, f: f, w: bufio.NewWriter(f), durable: validEnd}
	if validEnd == 0 {
		if _, err := w.w.WriteString(walMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: write wal magic: %w", err)
		}
		if err := w.flush(); err != nil {
			f.Close()
			return nil, err
		}
		w.durable = int64(len(walMagic))
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry in
// it is durable. Without it a crash can lose the file itself even
// though its contents were synced. Filesystems that cannot fsync a
// directory report EINVAL or ENOTSUP (tmpfs variants, some network
// and FUSE mounts); those are tolerated — on such filesystems the
// directory entry is as durable as it will ever get, and refusing to
// run there would fail every WAL and snapshot creation outright.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir for sync: %w", err)
	}
	err = d.Sync()
	// An injected fault replaces the Sync result, flowing through the
	// same tolerance check as a real filesystem error — so tests can
	// prove both that EINVAL/ENOTSUP are tolerated and that anything
	// else fails the caller.
	if ierr := fault.Inject(fault.SiteDirSync); ierr != nil {
		err = ierr
	}
	if ignorableSyncErr(err) {
		err = nil
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	return nil
}

// replayWAL applies all valid records and returns the offset of the last
// valid byte (magic included).
func replayWAL(f *os.File, apply func(string, Tuple, bool) error) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if st.Size() == 0 {
		return 0, nil
	}
	r := bufio.NewReader(f)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != walMagic {
		return 0, fmt.Errorf("storage: %s is not a kdb WAL", f.Name())
	}
	valid := int64(len(walMagic))
	for {
		if err := fault.Inject(fault.SiteWALReplay); err != nil {
			return 0, fmt.Errorf("storage: wal replay: %w", err)
		}
		payload, err := readRecord(r)
		if err == io.EOF {
			return valid, nil
		}
		if err == errTornRecord {
			return valid, nil // crash tail: keep the valid prefix
		}
		if err != nil {
			return 0, err
		}
		body := payload
		tombstone := len(payload) > 0 && payload[0] == tombstoneTag
		if tombstone {
			body = payload[1:]
		}
		pred, tuple, err := decodeFact(body)
		if err != nil {
			return valid, nil // treat undecodable content as torn
		}
		if err := apply(pred, tuple, tombstone); err != nil {
			return 0, err
		}
		valid += int64(uvarintLen(uint64(len(payload)))) + int64(len(payload)) + 4
	}
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// append logs one insertion and syncs it to stable storage.
func (w *wal) append(pred string, t Tuple) error {
	payload, err := encodeFact(pred, t)
	if err != nil {
		return err // nothing was buffered; the log is still clean
	}
	return w.appendPayloads(payload)
}

// appendDelete logs a tombstone for one fact (see the format note at the
// top of this file).
func (w *wal) appendDelete(pred string, t Tuple) error {
	fact, err := encodeFact(pred, t)
	if err != nil {
		return err
	}
	payload := make([]byte, 0, len(fact)+1)
	payload = append(payload, tombstoneTag)
	payload = append(payload, fact...)
	return w.appendPayloads(payload)
}

// appendPayloads is the log's one write path: it frames every payload,
// then makes them durable together with one flush and fsync. On failure
// the log is rewound to its last durable record boundary — none of the
// batch is kept, and a torn frame left in the buffer (or the file) can
// never corrupt later records; if even the rewind fails, the log is
// poisoned and every later append reports the sticky error. A crash
// mid-batch leaves a valid prefix on disk, which the next open keeps.
func (w *wal) appendPayloads(payloads ...[]byte) error {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return fmt.Errorf("%w: wal poisoned by earlier failure: %w", ErrDurability, w.failed)
	}
	var framed int64
	for _, payload := range payloads {
		if o := fault.Eval(fault.SiteWALAppend); o != nil {
			if err := w.injectAppendFault(o, payload); err != nil {
				return err
			}
		}
		if err := writeRecord(w.w, payload); err != nil {
			w.recoverLocked(err)
			return err
		}
		framed += int64(uvarintLen(uint64(len(payload)))) + int64(len(payload)) + 4
	}
	if err := w.flushLocked(); err != nil {
		w.recoverLocked(err)
		return err
	}
	w.durable += framed
	if o := w.obs.get(); o != nil {
		o.ObserveWALAppend(time.Since(start), int(framed))
	}
	return nil
}

// injectAppendFault applies an armed append failpoint. A torn-write
// outcome simulates a crash mid-frame: the batch's earlier records and
// a prefix of this framed record reach the file and the log is
// poisoned — no rewind runs, exactly as if the process had died before
// it could. Recovery happens where it would after a real crash: the
// torn tail is truncated at the next open. Every other outcome takes
// the production error path through recoverLocked (or returns nil for
// latency-only outcomes).
//
//kdb:locked mu
func (w *wal) injectAppendFault(o *fault.Outcome, payload []byte) error {
	if o.TornBytes > 0 {
		var frame bytes.Buffer
		if err := writeRecord(&frame, payload); err != nil {
			return err
		}
		k := o.TornBytes
		if k > frame.Len() {
			k = frame.Len()
		}
		_ = w.w.Flush()
		_, _ = w.f.Write(frame.Bytes()[:k])
		_ = w.f.Sync()
		err := fmt.Errorf("%w: torn write at %s", fault.ErrInjected, fault.SiteWALAppend)
		w.failed = err
		return err
	}
	err := o.Fire(fault.SiteWALAppend)
	if err != nil {
		w.recoverLocked(err)
	}
	return err
}

// recoverLocked rewinds the log to the last durable boundary after a
// failed append: the file is truncated to the durable offset and the
// buffered writer is reset so the partial frame's bytes are dropped.
// If the rewind fails the log is poisoned. Both failure paths wrap the
// rewind error with %w alongside the original cause, so errors.Is
// still reaches whatever the filesystem reported (the errwrap
// analyzer holds this line).
//
//kdb:locked mu
func (w *wal) recoverLocked(cause error) {
	err := fault.Inject(fault.SiteWALRewind)
	if err == nil {
		err = w.f.Truncate(w.durable)
	}
	if err != nil {
		w.failed = fmt.Errorf("%w (rewind truncate failed: %w)", cause, err)
		return
	}
	if _, err := w.f.Seek(w.durable, io.SeekStart); err != nil {
		w.failed = fmt.Errorf("%w (rewind seek failed: %w)", cause, err)
		return
	}
	w.w.Reset(w.f)
}

func (w *wal) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *wal) flushLocked() error {
	if err := fault.Inject(fault.SiteWALFlush); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := fault.Inject(fault.SiteWALSync); err != nil {
		return err
	}
	start := time.Now()
	err := w.f.Sync()
	if o := w.obs.get(); err == nil && o != nil {
		o.ObserveWALSync(time.Since(start))
	}
	return err
}

// reset truncates the log after a successful snapshot. It also clears a
// poisoned state: the snapshot captured every stored fact, so the old
// log content no longer matters.
// A failure anywhere past the truncate leaves the file and w.durable
// out of sync — the old log is already destroyed — so every error path
// poisons the log. Appending to a half-reset log would otherwise place
// records at offsets the rewind bookkeeping no longer describes,
// silently corrupting later records (found by the chaos harness). The
// poison clears on the next fully successful reset (a checkpoint
// retry) or on reopen, and the published snapshot already holds every
// stored fact, so nothing acknowledged is lost.
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// The checkpoint crash window: a fault here fires after the caller
	// published the snapshot but before the old log is destroyed, so
	// recovery sees both. Nothing is truncated yet — no poison.
	if err := fault.Inject(fault.SiteCheckpointReset); err != nil {
		return err
	}
	w.w.Reset(w.f) // drop any buffered partial frame
	if err := w.f.Truncate(0); err != nil {
		w.failed = fmt.Errorf("storage: wal reset truncate: %w", err)
		return w.failed
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		w.failed = fmt.Errorf("storage: wal reset seek: %w", err)
		return w.failed
	}
	if _, err := w.w.WriteString(walMagic); err != nil {
		w.failed = fmt.Errorf("storage: wal reset header: %w", err)
		return w.failed
	}
	if err := w.flushLocked(); err != nil {
		w.failed = fmt.Errorf("storage: wal reset flush: %w", err)
		return w.failed
	}
	w.durable = int64(len(walMagic))
	w.failed = nil
	return nil
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// countingWriter tracks how many bytes passed through it (snapshot
// size reporting).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeSnapshot dumps every relation to a temp file and atomically
// renames it over the snapshot path.
func (s *Store) writeSnapshot(path string) error {
	start := time.Now()
	if err := fault.Inject(fault.SiteSnapshotWrite); err != nil {
		return fmt.Errorf("storage: snapshot write: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "kdb.snap.tmp*")
	if err != nil {
		return fmt.Errorf("storage: snapshot temp: %w", err)
	}
	// Every failure path below removes the temp file, so a failed sync
	// or rename cannot strand a kdb.snap.tmp* orphan; after a
	// successful rename the name no longer exists and the remove is a
	// no-op. Orphans from a crash (no deferred cleanup runs) are swept
	// at the next Open.
	defer os.Remove(tmp.Name())
	cw := &countingWriter{w: tmp}
	w := bufio.NewWriter(cw)
	if _, err := w.WriteString(snapshotMagic); err != nil {
		tmp.Close()
		return err
	}
	s.mu.RLock()
	preds := make([]string, 0, len(s.rels))
	for p := range s.rels {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	rels := make(map[string]*Relation, len(s.rels))
	for p, r := range s.rels {
		rels[p] = r
	}
	s.mu.RUnlock()
	var werr error
	for _, p := range preds {
		rels[p].Scan(func(t Tuple) bool {
			var payload []byte
			if payload, werr = encodeFact(p, t); werr == nil {
				werr = writeRecord(w, payload)
			}
			return werr == nil
		})
		if werr != nil {
			tmp.Close()
			return werr
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := fault.Inject(fault.SiteSnapshotSync); err != nil {
		tmp.Close()
		return fmt.Errorf("storage: snapshot sync: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fault.Inject(fault.SiteSnapshotRename); err != nil {
		return fmt.Errorf("storage: snapshot rename: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("storage: snapshot rename: %w", err)
	}
	// The rename is only durable once the directory entry is synced.
	if err := syncDir(filepath.Dir(path)); err != nil {
		return err
	}
	if o := s.obs.get(); o != nil {
		o.ObserveSnapshot(time.Since(start), cw.n)
	}
	return nil
}

// loadSnapshot populates the store from a snapshot file, if present.
func (s *Store) loadSnapshot(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: open snapshot: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != snapshotMagic {
		return fmt.Errorf("storage: %s is not a kdb snapshot", path)
	}
	for {
		payload, err := readRecord(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("storage: corrupt snapshot %s: %w", path, err)
		}
		pred, tuple, err := decodeFact(payload)
		if err != nil {
			return fmt.Errorf("storage: corrupt snapshot %s: %w", path, err)
		}
		if _, err := s.insertLocked(pred, tuple); err != nil {
			return err
		}
	}
}
