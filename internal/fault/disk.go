package fault

import (
	"io"
	"io/fs"
	"os"
	"sync/atomic"
)

// FS is the one seam through which storage touches the file system:
// exactly the operations it uses. The real disk forwards them to
// package os.
type FS interface {
	MkdirAll(dir string, perm fs.FileMode) error
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Open(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(dir string) ([]string, error) // the names in dir
}

// File is an open file or directory, with the methods storage calls
// (all of which *os.File has). A directory's Sync makes its entries
// durable.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Name() string
	Close() error
}

// osDisk is the real file system.
type osDisk struct{}

func (osDisk) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }
func (osDisk) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return osFile(os.OpenFile(name, flag, perm))
}
func (osDisk) Open(name string) (File, error) { return osFile(os.Open(name)) }
func (osDisk) CreateTemp(dir, pattern string) (File, error) {
	return osFile(os.CreateTemp(dir, pattern))
}
func (osDisk) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osDisk) Remove(name string) error             { return os.Remove(name) }

func (osDisk) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

// osFile keeps a failed open's nil *os.File from becoming a non-nil File.
func osFile(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

type diskBox struct{ fs FS } // an FS in a type atomic.Pointer can hold

var disk atomic.Pointer[diskBox]

// Disk returns the disk storage uses: the real file system unless a
// test installed another with SetDisk.
func Disk() FS {
	if b := disk.Load(); b != nil {
		return b.fs
	}
	return osDisk{}
}

// SetDisk makes d the disk storage uses from now on, process-wide, and
// returns the one it replaces; open files keep theirs. A test installs
// a SimDisk and puts the returned disk back when it ends.
func SetDisk(d FS) FS {
	old := Disk()
	disk.Store(&diskBox{fs: d})
	return old
}
