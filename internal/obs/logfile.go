package obs

import (
	"os"
	"sync"
)

// LogFile is an append-only log file that can be reopened at its path:
// the logrotate handshake, in which an external rotator renames the
// file, signals the process (kdb handles SIGHUP), and writes continue
// into a fresh file at the configured path. Rotation by size, and how
// many rotated files to keep, are the rotator's business.
type LogFile struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// OpenLogFile opens (or appends to) the log file at path.
func OpenLogFile(path string) (*LogFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &LogFile{path: path, f: f}, nil
}

// Write appends p. Safe to call concurrently with Reopen.
func (w *LogFile) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Write(p)
}

// Reopen opens path afresh and closes the file written so far. A failed
// reopen keeps writing to the file it had open, so no record is lost.
func (w *LogFile) Reopen() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old := w.f
	w.f = f
	return old.Close()
}

// Close closes the current file.
func (w *LogFile) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
