package fault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// Op is a kind of disk operation a SimDisk can be told to fail; OpSync
// is a file's fsync, OpSyncDir a directory's.
type Op string

const (
	OpRead     Op = "read"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpSyncDir  Op = "syncdir"
	OpTruncate Op = "truncate"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
)

const readChunk = 16 // at most this per Read, so a read fault can land inside a record

// SimDisk is an in-memory FS that keeps only what was synced when it
// crashes. Per file it keeps the bytes written and the bytes synced.
// An entry change (create, rename, remove) is durable once its
// directory is synced; until then it waits in one log, in order, as a
// journaling file system keeps it. Directories are durable once made.
// Failures are behaviours of the disk, armed with Fail.
type SimDisk struct {
	// OnChange, when set, receives a copy of the disk after every
	// operation that changes it: the crash states a test enumerates.
	OnChange func(*SimDisk)

	mu            sync.Mutex
	dirs          map[string]bool
	live, durable map[string]*inode // by path
	log           []dirOp           // entry changes not yet durable
	epoch         int               // crashes so far; older handles are dead
	temps, hits   int
	faults        map[Op]*simFault
}

// dirOp sets the entry name to ino (removes it when ino is nil) and,
// for a rename, removes from.
type dirOp struct {
	name, from string
	ino        *inode
}

type inode struct{ data, synced []byte }

type simFault struct {
	skip, times int
	errno       syscall.Errno
}

// NewSimDisk returns an empty simulated disk.
func NewSimDisk() *SimDisk {
	return &SimDisk{dirs: map[string]bool{}, live: map[string]*inode{}, durable: map[string]*inode{}, faults: map[Op]*simFault{}}
}

// Fail arms a fault: of the operations of kind op from now on, the
// first skip succeed and the times after them fail with errno (times 0:
// every one until Heal). A failed write writes the first half of its
// bytes, as a full disk does; any other failed operation changes
// nothing. The error matches both errno and ErrInjected.
func (d *SimDisk) Fail(op Op, skip, times int, errno syscall.Errno) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults[op] = &simFault{skip: skip, times: times, errno: errno}
}

// Heal disarms every fault.
func (d *SimDisk) Heal() {
	d.mu.Lock()
	defer d.mu.Unlock()
	clear(d.faults)
}

// Hits reports how many operations failed by request.
func (d *SimDisk) Hits() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hits
}

// failLocked returns the armed fault an operation of kind op on path
// meets, if any.
func (d *SimDisk) failLocked(op Op, path string) error {
	f := d.faults[op]
	if f == nil {
		return nil
	}
	if f.skip > 0 {
		f.skip--
		return nil
	}
	if f.times--; f.times == 0 {
		delete(d.faults, op)
	}
	d.hits++
	return &fs.PathError{Op: string(op), Path: path, Err: fmt.Errorf("%w: %w", ErrInjected, f.errno)}
}

// Clone returns a copy of the disk without faults, hook or handles.
func (d *SimDisk) Clone() *SimDisk {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cloneLocked()
}

func (d *SimDisk) cloneLocked() *SimDisk {
	c := NewSimDisk()
	c.dirs, c.temps = maps.Clone(d.dirs), d.temps
	copies := map[*inode]*inode{nil: nil} // an inode shared by several entries stays shared
	cp := func(ino *inode) *inode {
		if _, ok := copies[ino]; !ok {
			copies[ino] = &inode{data: bytes.Clone(ino.data), synced: bytes.Clone(ino.synced)}
		}
		return copies[ino]
	}
	for path, ino := range d.live {
		c.live[path] = cp(ino)
	}
	for path, ino := range d.durable {
		c.durable[path] = cp(ino)
	}
	for _, op := range d.log {
		op.ino = cp(op.ino)
		c.log = append(c.log, op)
	}
	return c
}

// changedLocked hands a copy of the disk to OnChange.
func (d *SimDisk) changedLocked() {
	if d.OnChange != nil {
		d.OnChange(d.cloneLocked())
	}
}

func apply(entries map[string]*inode, op dirOp) {
	delete(entries, op.from)
	delete(entries, op.name)
	if op.ino != nil {
		entries[op.name] = op.ino
	}
}

// Crash models a power cut. The disk keeps its durable entries plus
// the first keep(n) of the n entry changes not yet durable; then each
// surviving file keeps its synced bytes plus keep(n) bytes of its n-byte
// unsynced tail: 0 keeps nothing more, n keeps every byte written, and
// anything between is a torn write. keep is called in a fixed order
// (the entry changes, then files by path), so a seeded keep reproduces
// a crash. Afterwards everything on the disk is durable, every fault is
// disarmed, and handles opened before the crash fail.
func (d *SimDisk) Crash(keep func(n int) int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	choose := func(n int) int { return min(max(keep(n), 0), n) }
	if n := len(d.log); n > 0 {
		for _, op := range d.log[:choose(n)] {
			apply(d.durable, op)
		}
	}
	d.live = make(map[string]*inode, len(d.durable))
	for _, path := range slices.Sorted(maps.Keys(d.durable)) {
		ino := d.durable[path]
		kept := ino.synced
		if !bytes.Equal(ino.data, ino.synced) {
			c := 0
			for c < len(ino.data) && c < len(ino.synced) && ino.data[c] == ino.synced[c] {
				c++
			}
			n := max(len(ino.data)-c, 1)
			switch k := choose(n); {
			case k == n:
				kept = ino.data
			case k > 0:
				kept = ino.data[:c+k]
			}
		}
		kept = bytes.Clone(kept)
		d.live[path] = &inode{data: kept, synced: kept}
		d.durable[path] = d.live[path]
	}
	d.log = nil
	d.epoch++
	clear(d.faults)
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

// MkdirAll makes dir, durably.
func (d *SimDisk) MkdirAll(dir string, _ fs.FileMode) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dirs[filepath.Clean(dir)] = true
	return nil
}

// OpenFile opens a file or, by its path, a directory. O_CREATE is the
// only flag it honours.
func (d *SimDisk) OpenFile(name string, flag int, _ fs.FileMode) (File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	name = filepath.Clean(name)
	f := &simFile{d: d, name: name, epoch: d.epoch, ino: d.live[name]}
	switch {
	case d.dirs[name] || f.ino != nil:
		return f, nil
	case flag&os.O_CREATE == 0 || !d.dirs[filepath.Dir(name)]:
		return nil, notExist("open", name)
	}
	f.ino = &inode{}
	d.changeLocked(dirOp{name: name, ino: f.ino})
	return f, nil
}

// changeLocked makes an entry change, visible now and durable once its
// directory is synced.
func (d *SimDisk) changeLocked(op dirOp) {
	apply(d.live, op)
	d.log = append(d.log, op)
	d.changedLocked()
}

// Open opens name for reading.
func (d *SimDisk) Open(name string) (File, error) { return d.OpenFile(name, os.O_RDONLY, 0) }

// CreateTemp creates a new file in dir, named by pattern with its "*"
// replaced by a counter.
func (d *SimDisk) CreateTemp(dir, pattern string) (File, error) {
	d.mu.Lock()
	d.temps++
	name := filepath.Join(dir, strings.Replace(pattern, "*", strconv.Itoa(d.temps), 1))
	d.mu.Unlock()
	return d.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o600)
}

// Rename moves an entry and Remove removes one; either is durable once
// the directory holding the new name is synced.
func (d *SimDisk) Rename(oldpath, newpath string) error { return d.unlink(OpRename, oldpath, newpath) }
func (d *SimDisk) Remove(name string) error             { return d.unlink(OpRemove, name, "") }

func (d *SimDisk) unlink(op Op, path, to string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	path = filepath.Clean(path)
	if err := d.failLocked(op, path); err != nil {
		return err
	}
	if d.live[path] == nil {
		return notExist(string(op), path)
	}
	change := dirOp{name: path}
	if to != "" {
		change = dirOp{name: filepath.Clean(to), from: path, ino: d.live[path]}
	}
	d.changeLocked(change)
	return nil
}

// ReadDir lists the entries of dir the process sees, sorted.
func (d *SimDisk) ReadDir(dir string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dir = filepath.Clean(dir)
	var names []string
	for _, path := range slices.Sorted(maps.Keys(d.live)) {
		if filepath.Dir(path) == dir {
			names = append(names, filepath.Base(path))
		}
	}
	return names, nil
}

// simFile is a handle on a SimDisk file, or on a directory when ino is
// nil.
type simFile struct {
	d      *SimDisk
	name   string
	ino    *inode
	off    int64
	epoch  int
	closed bool
}

var errCrashed = errors.New("fault: handle opened before a crash")

// begin takes the disk lock for an operation of kind op on the handle.
// It fails, releasing the lock, on a closed or stale handle, on a file
// operation on a directory, and on an armed fault (Write meets its own).
func (f *simFile) begin(op Op, file bool) error {
	f.d.mu.Lock()
	var cause, err error
	switch {
	case f.closed:
		cause = os.ErrClosed
	case f.epoch != f.d.epoch:
		cause = errCrashed
	case file && f.ino == nil:
		cause = syscall.EISDIR
	case op != OpWrite:
		err = f.d.failLocked(op, f.name)
	}
	if cause != nil {
		err = &fs.PathError{Op: string(op), Path: f.name, Err: cause}
	}
	if err != nil {
		f.d.mu.Unlock()
	}
	return err
}

func (f *simFile) Name() string { return f.name }

func (f *simFile) Read(p []byte) (int, error) {
	if err := f.begin(OpRead, true); err != nil {
		return 0, err
	}
	defer f.d.mu.Unlock()
	if f.off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), readChunk)], f.ino.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *simFile) Write(p []byte) (int, error) {
	if err := f.begin(OpWrite, true); err != nil {
		return 0, err
	}
	defer f.d.mu.Unlock()
	err := f.d.failLocked(OpWrite, f.name)
	if err != nil {
		p = p[:len(p)/2]
	}
	if grow := f.off + int64(len(p)) - int64(len(f.ino.data)); grow > 0 {
		f.ino.data = append(f.ino.data, make([]byte, grow)...)
	}
	f.off += int64(copy(f.ino.data[f.off:], p))
	f.d.changedLocked()
	return len(p), err
}

// Sync makes a file's bytes durable, or a directory's entry changes.
func (f *simFile) Sync() error {
	op := OpSync
	if f.ino == nil {
		op = OpSyncDir
	}
	if err := f.begin(op, false); err != nil {
		return err
	}
	defer f.d.mu.Unlock()
	if f.ino != nil {
		f.ino.synced = bytes.Clone(f.ino.data)
	} else {
		f.d.log = slices.DeleteFunc(f.d.log, func(op dirOp) bool {
			ok := filepath.Dir(op.name) == f.name
			if ok {
				apply(f.d.durable, op)
			}
			return ok
		})
	}
	f.d.changedLocked()
	return nil
}

func (f *simFile) Truncate(size int64) error {
	if err := f.begin(OpTruncate, true); err != nil {
		return err
	}
	defer f.d.mu.Unlock()
	if grow := size - int64(len(f.ino.data)); grow > 0 {
		f.ino.data = append(f.ino.data, make([]byte, grow)...)
	}
	f.ino.data = f.ino.data[:size]
	f.d.changedLocked()
	return nil
}

func (f *simFile) Seek(offset int64, whence int) (int64, error) {
	if err := f.begin("seek", true); err != nil {
		return 0, err
	}
	defer f.d.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.ino.data))
	}
	f.off = offset
	return offset, nil
}

func (f *simFile) Close() error {
	if err := f.begin("close", false); err != nil {
		return err
	}
	defer f.d.mu.Unlock()
	f.closed = true
	return nil
}
