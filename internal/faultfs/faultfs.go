// Package faultfs is the repository's filesystem indirection for fault
// injection. The disk-touching layers — the work-stealing explorer's
// frontier spill (internal/lts/spill.go) and bipd's crash-safe journal
// and report store (serve/store.go) — perform every file operation
// through an FS value instead of calling the os package directly. In
// production that value is OS, a zero-cost passthrough; in tests it is
// a Hooks wrapper that fails chosen operations on demand, which is how
// the repo proves its robustness contracts executably: an injected
// WriteAt/ReadAt/CreateTemp failure must surface as a clean run error
// (spill) or flip the service into degraded in-memory mode (store) —
// never a panic, a hang, or a corrupted file left behind.
//
// The interface is deliberately minimal: exactly the operations the
// two consumers perform, nothing speculative. Hooks additionally does
// lifecycle accounting (files created, closed, removed), so hygiene
// tests can assert "every temp file is closed and removed on every
// exit path" without scanning real directories.
package faultfs

import (
	"io"
	"os"
	"sync"
)

// File is the slice of *os.File the spill and store layers use:
// positioned reads/writes for the spill chunks, appends and Sync for
// the journal.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Writer
	Sync() error
	Name() string
	Close() error
}

// FS is the slice of the os package the disk layers use. All methods
// must be safe for concurrent use (the real os package is).
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
}

// OS is the real filesystem — the default of every consumer.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }

// Hooks is an FS that delegates to Inner (OS when nil) but consults an
// optional per-operation hook first; a hook returning a non-nil error
// fails the operation without touching the inner filesystem, which is
// how tests inject the disk fault of their choice (first write, nth
// read, temp-file creation, ...). Independent of the hooks, Hooks
// counts file lifecycle events so hygiene tests can assert that a layer
// closed and removed everything it created.
//
// The zero Hooks value (no hooks installed) is a pure passthrough and
// is safe for concurrent use, like every FS.
type Hooks struct {
	// Inner is the wrapped filesystem; nil means OS.
	Inner FS

	// Operation hooks; nil hooks pass through. Each receives the
	// operation's target (the pattern for CreateTemp, the file name for
	// the rest) and, for positioned I/O, the offset and length.
	OnCreateTemp func(pattern string) error
	OnOpenFile   func(name string) error
	OnWriteAt    func(name string, off int64, n int) error
	OnReadAt     func(name string, off int64, n int) error
	OnWrite      func(name string, n int) error
	OnSync       func(name string) error
	OnRename     func(oldpath, newpath string) error
	OnRemove     func(name string) error

	mu      sync.Mutex
	created []string
	removed []string
	live    int
}

func (h *Hooks) inner() FS {
	if h.Inner == nil {
		return OS
	}
	return h.Inner
}

// Created returns the names of every file opened or created through
// this Hooks, in order.
func (h *Hooks) Created() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.created...)
}

// Removed returns the names passed to successful Remove calls.
func (h *Hooks) Removed() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.removed...)
}

// Live returns the number of files opened through this Hooks and not
// yet closed — 0 after a layer with clean file hygiene has unwound.
func (h *Hooks) Live() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.live
}

func (h *Hooks) track(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.created = append(h.created, f.Name())
	h.live++
	h.mu.Unlock()
	return &hookedFile{f: f, h: h}, nil
}

func (h *Hooks) CreateTemp(dir, pattern string) (File, error) {
	if h.OnCreateTemp != nil {
		if err := h.OnCreateTemp(pattern); err != nil {
			return nil, err
		}
	}
	return h.track(h.inner().CreateTemp(dir, pattern))
}

func (h *Hooks) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if h.OnOpenFile != nil {
		if err := h.OnOpenFile(name); err != nil {
			return nil, err
		}
	}
	return h.track(h.inner().OpenFile(name, flag, perm))
}

func (h *Hooks) MkdirAll(path string, perm os.FileMode) error {
	return h.inner().MkdirAll(path, perm)
}

func (h *Hooks) Rename(oldpath, newpath string) error {
	if h.OnRename != nil {
		if err := h.OnRename(oldpath, newpath); err != nil {
			return err
		}
	}
	return h.inner().Rename(oldpath, newpath)
}

func (h *Hooks) Remove(name string) error {
	if h.OnRemove != nil {
		if err := h.OnRemove(name); err != nil {
			return err
		}
	}
	err := h.inner().Remove(name)
	if err == nil {
		h.mu.Lock()
		h.removed = append(h.removed, name)
		h.mu.Unlock()
	}
	return err
}

func (h *Hooks) ReadFile(name string) ([]byte, error) {
	return h.inner().ReadFile(name)
}

// hookedFile wraps a File so per-file operations consult the Hooks and
// Close keeps the live count honest. Double closes decrement once.
type hookedFile struct {
	f      File
	h      *Hooks
	closed bool
	mu     sync.Mutex
}

func (f *hookedFile) Name() string { return f.f.Name() }

func (f *hookedFile) WriteAt(p []byte, off int64) (int, error) {
	if hook := f.h.OnWriteAt; hook != nil {
		if err := hook(f.f.Name(), off, len(p)); err != nil {
			return 0, err
		}
	}
	return f.f.WriteAt(p, off)
}

func (f *hookedFile) ReadAt(p []byte, off int64) (int, error) {
	if hook := f.h.OnReadAt; hook != nil {
		if err := hook(f.f.Name(), off, len(p)); err != nil {
			return 0, err
		}
	}
	return f.f.ReadAt(p, off)
}

func (f *hookedFile) Write(p []byte) (int, error) {
	if hook := f.h.OnWrite; hook != nil {
		if err := hook(f.f.Name(), len(p)); err != nil {
			return 0, err
		}
	}
	return f.f.Write(p)
}

func (f *hookedFile) Sync() error {
	if hook := f.h.OnSync; hook != nil {
		if err := hook(f.f.Name()); err != nil {
			return err
		}
	}
	return f.f.Sync()
}

func (f *hookedFile) Close() error {
	f.mu.Lock()
	wasClosed := f.closed
	f.closed = true
	f.mu.Unlock()
	if !wasClosed {
		f.h.mu.Lock()
		f.h.live--
		f.h.mu.Unlock()
	}
	return f.f.Close()
}

// FailNth returns a hook-shaped counter that errors the nth call
// (1-based) with err and passes every other call through; n <= 0 never
// fails. It is safe for concurrent use, so it can back hooks fired
// from multiple explorer workers.
func FailNth(n int, err error) func() error {
	var mu sync.Mutex
	calls := 0
	return func() error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if n > 0 && calls == n {
			return err
		}
		return nil
	}
}
